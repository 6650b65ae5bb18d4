(* Clock and output helpers shared by the benchmark's modules. *)

let now = Unix.gettimeofday

(* Metric names: [A-Za-z0-9_.-], starting with a letter or digit. *)
let valid_name s =
  String.length s > 0
  && String.length s <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* Registry names may hold [*] ("log*"); metric names spell it "star". *)
let slug name =
  let b = Buffer.create (String.length name + 4) in
  String.iter
    (function '*' -> Buffer.add_string b "star" | c -> Buffer.add_char b c)
    name;
  Buffer.contents b

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision, and never a non-number: a NaN or infinite metric is a
   benchmark bug, reported as such. *)
let json_float x =
  if not (Float.is_finite x) then failwith (Printf.sprintf "non-finite metric value %g" x)
  else Printf.sprintf "%.17g" x
