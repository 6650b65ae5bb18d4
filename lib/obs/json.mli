(** JSON: the one module that knows JSON syntax. Every emitter builds a
    {!t} and prints it here; every reader parses here. The printer has
    one fixed layout: containers at the top two levels put one member
    per line, deeper ones print on one line. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** The literal, printed verbatim: each producer picks its precision. *)
  | Str of string  (** Raw bytes; the printer escapes them. *)
  | Arr of t list
  | Obj of (string * t) list  (** Members in printed order. *)

val int : int -> t

val float : (float -> string, unit, string) format -> float -> t
(** [float fmt x] is [Num (Printf.sprintf fmt x)], or [Null] when [x]
    is not finite: JSON has no literal for infinities or NaN. *)

val to_string : t -> string
(** The printed value and a newline. *)

(** {1 Streaming} A document [{"key": [e1, e2, ...], ...}] whose array
    is too large to hold as a tree, written one element at a time. *)

type stream

val stream : string -> stream
(** An empty stream for the array member named by the argument. *)

val push : stream -> t -> unit

val stream_to_string : stream -> (string * t) list -> string
(** [stream_to_string s rest]: what {!to_string} prints for the object
    whose members are the streamed array, then [rest]. *)

(** {1 Reading} *)

exception Parse_error of string

val parse : string -> t
(** One document. Numbers keep their literal; [\uXXXX] escapes,
    surrogate pairs included, decode to UTF-8. *)

val member : string -> t -> t
(** [member k v]: [k]'s value in object [v], else [Null]. *)

val to_float : t -> float
(** A [Num]'s value; [nan] for anything else, failing every comparison. *)
