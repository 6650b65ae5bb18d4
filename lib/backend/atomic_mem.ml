type mem = { mutable count : int }
type reg = int Atomic.t
type ctx = { rng : Random.State.t option; slot : int }
type name = unit

let label _ = ()
let sub () _ = ()
let item () _ _ = ()

let create () = { count = 0 }
let allocated m = m.count

let alloc m ~name:() =
  m.count <- m.count + 1;
  Atomic.make 0

let ctx ?rng ~slot () = { rng; slot }
let self c = c.slot
let read _ r = Atomic.get r
let write _ r v = Atomic.set r v

let rng c =
  match c.rng with
  | Some r -> r
  | None ->
      invalid_arg
        "Atomic_mem: this context carries no Random.State but the algorithm \
         flipped a coin"

let flip c bound = Random.State.int (rng c) bound
let flip_bool c = Random.State.bool (rng c)

(* Same truncated-geometric shape as [Sim.Rng.geometric_capped]: count
   fair coins until the first heads, capped at [l]. *)
let flip_geometric c l =
  if l < 1 then invalid_arg "Atomic_mem.flip_geometric: l must be >= 1";
  let r = rng c in
  let rec loop i =
    if i >= l then l else if Random.State.bool r then i else loop (i + 1)
  in
  loop 1

let enter _ _ = ()
let leave _ _ = ()
