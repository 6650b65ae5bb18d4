type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (string_of_int n)
let float fmt x = if Float.is_finite x then Num (Printf.sprintf fmt x) else Null

(* {1 Printing} *)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let newline b depth =
  Buffer.add_char b '\n';
  Buffer.add_string b (String.make (2 * depth) ' ')

(* The layout: a container at depth 0 or 1 puts each member on its own
   line; a deeper one prints on one line. Bench results, reports and
   traces then read one record per line. *)
let container b depth (opening, closing) item xs =
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      if depth < 2 then newline b (depth + 1)
      else if i > 0 then Buffer.add_char b ' ';
      item (depth + 1) x)
    xs;
  if depth < 2 then newline b depth;
  Buffer.add_char b closing

let rec print b depth = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num s -> Buffer.add_string b s
  | Str s -> escape b s
  | Arr [] -> Buffer.add_string b "[]"
  | Obj [] -> Buffer.add_string b "{}"
  | Arr vs -> container b depth ('[', ']') (print b) vs
  | Obj kvs -> container b depth ('{', '}') (member b) kvs

and member b depth (k, v) =
  escape b k;
  Buffer.add_string b ": ";
  print b depth v

let to_string v =
  let b = Buffer.create 1024 in
  print b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* {1 Streaming}

   The elements sit at depth 2: inside the array (depth 1) inside the
   document (depth 0). *)

type stream = { key : string; elements : Buffer.t }

let stream key = { key; elements = Buffer.create 65536 }

let push s v =
  if Buffer.length s.elements > 0 then Buffer.add_char s.elements ',';
  newline s.elements 2;
  print s.elements 2 v

(* The document printed with an empty array, and the elements spliced
   into that "[]": it follows "{\n  ", the key and ": [". *)
let stream_to_string s rest =
  let whole = to_string (Obj ((s.key, Arr []) :: rest)) in
  if Buffer.length s.elements = 0 then whole
  else
    let k = String.length (to_string (Str s.key)) + 6 in
    String.sub whole 0 k ^ Buffer.contents s.elements ^ "\n  "
    ^ String.sub whole k (String.length whole - k)

(* {1 Parsing} *)

exception Parse_error of string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let eat c = if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let rec skip_ws () = if String.contains " \t\n\r" (peek ()) then (incr pos; skip_ws ()) in
  let hex4 () =
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if !pos + 4 > n || not (String.for_all is_hex (String.sub s !pos 4)) then
      fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ String.sub s (!pos - 4) 4)
  in
  (* After "\u": one code point, joining a UTF-16 surrogate pair. *)
  let code_point () =
    let u = hex4 () in
    if u land 0xFC00 = 0xDC00 then fail "lone surrogate";
    if u land 0xFC00 <> 0xD800 then u
    else begin
      eat '\\';
      eat 'u';
      let lo = hex4 () in
      if lo land 0xFC00 <> 0xDC00 then fail "lone surrogate";
      0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
    end
  in
  let string () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      let c = peek () in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          let e = peek () in
          incr pos;
          (match String.index_opt "\"\\/bfnrt" e with
          | _ when e = 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
          | Some i -> Buffer.add_char b "\"\\/\b\012\n\r\t".[i]
          | None -> fail "bad escape");
          go ()
      | c when c < ' ' -> fail "unterminated string or control character"
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let digits () =
    let start = !pos in
    while peek () >= '0' && peek () <= '9' do incr pos done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    if peek () = '.' then (incr pos; digits ());
    if peek () = 'e' || peek () = 'E' then begin
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ()
    end;
    Num (String.sub s start (!pos - start))
  in
  let literal word v = String.iter eat word; v in
  (* Comma-separated items up to [closing]; the opening bracket is
     already consumed. *)
  let items closing item =
    skip_ws ();
    if peek () = closing then (incr pos; [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        if peek () = ',' then (incr pos; go acc) else (eat closing; List.rev acc)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        let member () =
          skip_ws ();
          let k = string () in
          skip_ws ();
          eat ':';
          (k, value ())
        in
        Obj (items '}' member)
    | '[' -> incr pos; Arr (items ']' value)
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "expected a value"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let member k = function
  | Obj kvs -> Option.value ~default:Null (List.assoc_opt k kvs)
  | _ -> Null

let to_float = function
  | Num s -> Option.value ~default:Float.nan (float_of_string_opt s)
  | _ -> Float.nan
