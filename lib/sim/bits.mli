(** Integer helpers shared by every structure's size computation. *)

val ceil_log2 : int -> int
(** [ceil_log2 n] is [max 1 (ceil (log2 n))]: 1 for [n <= 2], 2 for
    [n <= 4], 3 for [n <= 8], ... — the tree heights, chain cutoffs and
    geometric caps of the paper's constructions. *)

val pow2_at_least : int -> int
(** The least power of two [>= n] (1 for [n <= 1]). *)
