(** The Group Election of Figure 1, for the location-oblivious adversary.

    With [l = max 1 (ceil (log2 n))], it uses registers [R[1..l+1]] and a
    [flag] register. A participant that finds the flag set leaves
    immediately; otherwise it sets the flag, draws a random index [x]
    with [Pr(x = i) = 2^-i] (capped at [l]), writes [R[x]], and is
    elected iff [R[x+1]] is still unwritten.

    Lemma 2.2: O(1) steps, O(log n) registers, and performance parameter
    [f(k) <= 2 log2 k + 6] against the location-oblivious adversary
    (the adversary cannot aim at the written cell because it does not
    learn [x] before the write lands). *)

val level : int -> int
(** [level n] is the geometric cap [l = max 1 (ceil (log2 n))]. Exposed
    so alternative kernels can reproduce the draw bit-for-bit. *)

module Make (M : Backend.Mem.S) : sig
  val create : ?name:M.name -> M.mem -> n:int -> M.ctx Ge.gen
end

val create : ?name:string -> Sim.Memory.t -> n:int -> Ge.t

val registers : n:int -> int
(** Number of registers one instance allocates. *)
