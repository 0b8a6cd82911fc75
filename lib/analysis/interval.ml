(* Interval domain over floats, the abstract values Bounds interprets
   CIR with: packet-header sizes, flag-dependent branch outcomes, loop
   trip counts and cycle costs all live in [lo, hi] ranges.  Endpoints
   may be infinite (an S_opaque trip has hi = +inf); NaN never enters
   the domain — constructors sanitize it to the conservative top. *)

type t = Bot | Iv of { lo : float; hi : float }

let bottom = Bot
let top = Iv { lo = Float.neg_infinity; hi = Float.infinity }

let make lo hi =
  let lo = if Float.is_nan lo then Float.neg_infinity else lo in
  let hi = if Float.is_nan hi then Float.infinity else hi in
  if lo > hi then Bot else Iv { lo; hi }

let const v = make v v
let is_bottom t = t = Bot

let lo = function Bot -> Float.infinity | Iv { lo; _ } -> lo
let hi = function Bot -> Float.neg_infinity | Iv { hi; _ } -> hi

let is_finite = function
  | Bot -> true
  | Iv { lo; hi } -> Float.is_finite lo && Float.is_finite hi

let contains t v =
  match t with Bot -> false | Iv { lo; hi } -> lo <= v && v <= hi

let equal a b =
  match (a, b) with
  | Bot, Bot -> true
  | Iv a, Iv b -> a.lo = b.lo && a.hi = b.hi
  | _ -> false

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Iv a, Iv b -> Iv { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv a, Iv b -> make (Float.max a.lo b.lo) (Float.min a.hi b.hi)

let add a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv a, Iv b -> make (a.lo +. b.lo) (a.hi +. b.hi)

(* 0 * inf is 0 here, not NaN: a zero-execution-count block contributes
   nothing even when its per-execution cost is unbounded. *)
let mulf a b = if a = 0. || b = 0. then 0. else a *. b

let mul a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv a, Iv b ->
      let p1 = mulf a.lo b.lo and p2 = mulf a.lo b.hi in
      let p3 = mulf a.hi b.lo and p4 = mulf a.hi b.hi in
      make
        (Float.min (Float.min p1 p2) (Float.min p3 p4))
        (Float.max (Float.max p1 p2) (Float.max p3 p4))

let scale k t =
  match t with Bot -> Bot | Iv { lo; hi } -> mul (const k) (Iv { lo; hi })

let pp_endpoint fmt v =
  if v = Float.infinity then Format.pp_print_string fmt "inf"
  else if v = Float.neg_infinity then Format.pp_print_string fmt "-inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Format.fprintf fmt "%.0f" v
  else Format.fprintf fmt "%.1f" v

let pp fmt = function
  | Bot -> Format.pp_print_string fmt "_|_"
  | Iv { lo; hi } ->
      Format.fprintf fmt "[%a, %a]" pp_endpoint lo pp_endpoint hi

let to_json t =
  let module J = Clara_util.Json in
  match t with
  | Bot -> J.Null
  | Iv { lo; hi } ->
      let f v =
        if v = Float.infinity then J.String "inf"
        else if v = Float.neg_infinity then J.String "-inf"
        else J.Float v
      in
      J.Obj [ ("lo", f lo); ("hi", f hi) ]
