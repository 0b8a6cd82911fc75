type t = { base : float; per_unit : float; log2_coeff : float }

let const base = { base; per_unit = 0.; log2_coeff = 0. }
let linear ~base ~per_unit = { base; per_unit; log2_coeff = 0. }
let logarithmic ~base ~log2_coeff = { base; per_unit = 0.; log2_coeff }

let eval f n =
  let n = if n < 0. then 0. else n in
  f.base +. (f.per_unit *. n) +. (f.log2_coeff *. (Float.log2 (1. +. n)))

(* The simulator evaluates a cost per packet leg, so the linear case
   skips both C calls.  With [log2_coeff = 0.] the log term is a zero,
   which moves no sum whose sign decides anything here; and for
   [0 < v < 2^52] the fraction [v - trunc v] is exact, so comparing it
   with one half rounds half away from zero exactly as [Float.round]. *)
let eval_int f n =
  if f.log2_coeff = 0. then begin
    let v = f.base +. (f.per_unit *. float_of_int (Int.max 0 n)) in
    if v <= 0. then 0
    else
      let r = int_of_float v in
      if v -. float_of_int r >= 0.5 then r + 1 else r
  end
  else
    let v = eval f (float_of_int n) in
    if v <= 0. then 0 else int_of_float (Float.round v)

let add a b =
  { base = a.base +. b.base;
    per_unit = a.per_unit +. b.per_unit;
    log2_coeff = a.log2_coeff +. b.log2_coeff }

let scale k f =
  { base = k *. f.base; per_unit = k *. f.per_unit; log2_coeff = k *. f.log2_coeff }

let pp fmt f =
  Format.fprintf fmt "%.1f + %.3f*n + %.1f*log2(1+n)" f.base f.per_unit f.log2_coeff
