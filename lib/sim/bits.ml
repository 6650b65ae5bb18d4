let ceil_log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  max 1 (go 0 n)

let pow2_at_least n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1
