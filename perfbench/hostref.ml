(* The host-speed reference: a fixed loop of the benchmark's own code,
   timed after every measured pass, that tells how fast the host runs
   this process during the run.

   On a shared host, other tenants slow this process down by up to 1.8x
   for stretches of seconds to minutes, so one run's host times can sit
   well above another's for the same code. The fastest time of this loop
   over a run rises and falls with the fastest times of the workload's
   passes over the same run (both lean on the caches and memory the
   tenants share), so scaling the run's throughput by it cancels most
   of that drift. One call takes about a fifth of a second, as long as
   the workload's longer timed parts: a shorter call finds quiet moments
   too brief for those parts to use, and over-corrects. See README.md,
   Noise.

   The loop looks up and overwrites integer keys of a standard-library
   Hashtbl larger than one core's L2 cache. No change to the
   repository's libraries touches it, and after the first call it
   allocates nothing, so the collector's settings do not reach it
   either. *)

let keys = 65536

(* Built by the first call, so that a run can measure its heap first. *)
let table : (int, int) Hashtbl.t Lazy.t = lazy (Hashtbl.create keys)

let work () =
  let table = Lazy.force table in
  let acc = ref 0 in
  for i = 1 to 3_000_000 do
    (* 7919 is odd, so the first call inserts every key. *)
    let k = (i * 7919) land (keys - 1) in
    (match Hashtbl.find table k with
    | v -> acc := !acc + v
    | exception Not_found -> ());
    Hashtbl.replace table k i
  done;
  !acc

(* Host seconds of one call. *)
let time () = snd (Engine.timed (fun () -> Sys.opaque_identity (work ())))

(* The time of [work] that counts as the reference speed: throughput
   is reported as if the run's fastest call had taken this long. Only the ratio of a metric between commits matters, so this
   sets their scale only; it is about [work]'s fastest time on a quiet
   core of the 2.1 GHz Intel Xeon virtual machine the benchmark was
   tuned on, so adjusted and raw figures read alike there. *)
let nominal_s = 0.18

(* How much slower than the reference the host ran: the run's fastest
   call over [nominal_s]. *)
let slowdown calls =
  List.fold_left Float.min infinity calls /. nominal_s
