module J = Clara_util.Json

type kind = Gauge | Rate

type t = {
  name : string;
  kind : kind;
  base_cadence : int;
  max_windows : int;
  mutable cadence : int;
  sums : float array;
  counts : int array;
  mutable hi : int;          (* number of windows in use: indices [0, hi) *)
  mutable n_obs : int;
  mutable sum_obs : float;
}

let create ?(max_windows = 256) ~name ~kind ~cadence () =
  if cadence <= 0 then invalid_arg "Timeseries.create: cadence must be positive";
  let max_windows = max 8 max_windows in
  {
    name;
    kind;
    base_cadence = cadence;
    max_windows;
    cadence;
    sums = Array.make max_windows 0.;
    counts = Array.make max_windows 0;
    hi = 0;
    n_obs = 0;
    sum_obs = 0.;
  }

let name t = t.name
let kind t = t.kind
let cadence t = t.cadence
let base_cadence t = t.base_cadence
let max_windows t = t.max_windows
let count t = t.n_obs
let total t = t.sum_obs

(* Pairwise-merge adjacent windows in place; the cadence doubles and the
   occupied prefix halves.  Window i of the new scale is exactly windows
   2i and 2i+1 of the old, so repeated halving keeps sums and counts
   exact — no observation is ever approximated, only bucketed coarser. *)
let downsample t =
  let m = (t.hi + 1) / 2 in
  for i = 0 to m - 1 do
    let a = 2 * i and b = (2 * i) + 1 in
    let s = t.sums.(a) +. (if b < t.hi then t.sums.(b) else 0.) in
    let c = t.counts.(a) + if b < t.hi then t.counts.(b) else 0 in
    t.sums.(i) <- s;
    t.counts.(i) <- c
  done;
  for i = m to t.hi - 1 do
    t.sums.(i) <- 0.;
    t.counts.(i) <- 0
  done;
  t.hi <- m;
  t.cadence <- t.cadence * 2

let observe_agg t ~now ~sum ~count =
  if count > 0 then begin
    let now = Int.max 0 now in
    while now / t.cadence >= t.max_windows do
      downsample t
    done;
    let i = now / t.cadence in
    t.sums.(i) <- t.sums.(i) +. sum;
    t.counts.(i) <- t.counts.(i) + count;
    if i >= t.hi then t.hi <- i + 1;
    t.n_obs <- t.n_obs + count;
    t.sum_obs <- t.sum_obs +. sum
  end

let observe t ~now v = observe_agg t ~now ~sum:v ~count:1

type window = { w_start : int; w_sum : float; w_count : int }

let windows t =
  let acc = ref [] in
  for i = t.hi - 1 downto 0 do
    if t.counts.(i) > 0 then
      acc := { w_start = i * t.cadence; w_sum = t.sums.(i); w_count = t.counts.(i) }
             :: !acc
  done;
  !acc

let value kind w =
  match kind with
  | Gauge -> if w.w_count = 0 then Float.nan else w.w_sum /. float_of_int w.w_count
  | Rate -> w.w_sum

let copy t =
  {
    t with
    sums = Array.copy t.sums;
    counts = Array.copy t.counts;
  }

let merge = function
  | [] -> invalid_arg "Timeseries.merge: empty list"
  | first :: rest as all ->
      List.iter
        (fun s ->
          if
            s.name <> first.name || s.kind <> first.kind
            || s.base_cadence <> first.base_cadence
          then
            invalid_arg
              (Printf.sprintf
                 "Timeseries.merge: series '%s' disagrees with '%s' on \
                  name/kind/cadence"
                 s.name first.name))
        rest;
      let target_cadence = List.fold_left (fun a s -> max a s.cadence) 0 all in
      let max_w = List.fold_left (fun a s -> max a s.max_windows) 0 all in
      let out =
        create ~max_windows:max_w ~name:first.name ~kind:first.kind
          ~cadence:first.base_cadence ()
      in
      out.cadence <- target_cadence;
      List.iter
        (fun s ->
          let s = if s.cadence < target_cadence then copy s else s in
          while s.cadence < target_cadence do
            downsample s
          done;
          (* A coarser input than requested cannot happen: target is the max. *)
          for i = 0 to s.hi - 1 do
            if s.counts.(i) > 0 then begin
              (* The target may itself need to coarsen if an input used a
                 larger max_windows budget than [out]. *)
              while i * s.cadence / out.cadence >= out.max_windows do
                downsample out
              done;
              let j = i * s.cadence / out.cadence in
              out.sums.(j) <- out.sums.(j) +. s.sums.(i);
              out.counts.(j) <- out.counts.(j) + s.counts.(i);
              if j >= out.hi then out.hi <- j + 1
            end
          done;
          out.n_obs <- out.n_obs + s.n_obs;
          out.sum_obs <- out.sum_obs +. s.sum_obs)
        all;
      out

let kind_name = function Gauge -> "gauge" | Rate -> "rate"

let to_json t =
  J.Obj
    [
      ("name", J.String t.name);
      ("kind", J.String (kind_name t.kind));
      ("cadence", J.Int t.cadence);
      ("base_cadence", J.Int t.base_cadence);
      ("count", J.Int t.n_obs);
      ("total", J.Float t.sum_obs);
      ( "windows",
        J.List
          (List.map
             (fun w ->
               J.Obj
                 [
                   ("t", J.Int w.w_start);
                   ("sum", J.Float w.w_sum);
                   ("count", J.Int w.w_count);
                   ("value", J.Float (value t.kind w));
                 ])
             (windows t)) );
    ]

let csv_header = "series,kind,cadence,window_start,sum,count,value"

(* %.17g round-trips doubles losslessly; integral values print short. *)
let f17 v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_csv_rows t =
  List.map
    (fun w ->
      Printf.sprintf "%s,%s,%d,%d,%s,%d,%s" t.name (kind_name t.kind) t.cadence
        w.w_start (f17 w.w_sum) w.w_count
        (f17 (value t.kind w)))
    (windows t)
