(* Correctness checks. A failed check aborts the benchmark with a
   non-zero exit and no result line.

   [plant] names a check to break on purpose (--plant NAME): the
   benchmark's own tests use it to show that a failing check really
   exits non-zero. *)

exception Failed of string

let plant = ref ""
let planted name = !plant = name

let require name ok msg =
  if not ok then raise (Failed (Printf.sprintf "%s: %s" name msg))

(* Names accepted by --plant, one per check family. *)
let plants =
  [
    "elect-vector";
    "elect-winner";
    "atomic-winner";
    "svc-balance";
    "svc-stale";
    "telemetry";
    "drift";
  ]
