module Ts = Clara_obs.Timeseries
module J = Clara_util.Json

(* Per-tenant series, indexed by the t_* constants below. *)
let t_queue = 0
let t_goodput = 1
let t_drops = 2
let t_latency = 3
let t_busy = 4
let t_deficit = 5
let t_fc_hits = 6
let t_fc_misses = 7
let t_emem_hits = 8
let t_emem_misses = 9

let tenant_metrics =
  [|
    ("queue_depth", Ts.Gauge);
    ("goodput", Ts.Rate);
    ("drops", Ts.Rate);
    ("latency", Ts.Gauge);
    ("busy_cycles", Ts.Rate);
    ("wrr_deficit", Ts.Gauge);
    ("fc_hits", Ts.Rate);
    ("fc_misses", Ts.Rate);
    ("emem_hits", Ts.Rate);
    ("emem_misses", Ts.Rate);
  |]

(* Sim-wide series. *)
let g_accel_busy = 0
let g_dma_busy = 1
let g_upcalls = 2

let global_metrics =
  [|
    ("accel_busy", Ts.Rate);
    ("dma_busy", Ts.Rate);
    ("upcalls", Ts.Rate);
  |]

(* Scalar accumulators for the window in flight.  The per-packet hooks
   touch only these (a few adds and one division each); the series get
   one [observe_agg] per window advance, in [flush].  Window sums are
   identical to per-event observes — every pending event shares the
   window of [acc_now], the timestamp the flush is attributed to.  The
   sums are ints: a float field of this mixed record would box, and pay
   a write barrier, on every packet, and int sums below 2^53 convert to
   the float a float fold gives. *)
type tacc = {
  mutable q_sum : int;
  mutable q_n : int;
  mutable good : int;
  mutable drop : int;
  mutable lat_sum : int;
  mutable busy_sum : int;
  mutable def_sum : int;
  mutable def_n : int;
}

let fresh_tacc () =
  { q_sum = 0; q_n = 0; good = 0; drop = 0; lat_sum = 0; busy_sum = 0;
    def_sum = 0; def_n = 0 }

type t = {
  cad : int;
  max_w : int;
  mutable names : string array;
  mutable tenants : Ts.t array array; (* indexed [tenant][t_ constant] *)
  mutable globals : Ts.t array;       (* indexed [g_ constant] *)
  mutable accs : tacc array;
  (* Delta cursors for the sim's cumulative counters, sampled at flush. *)
  mutable cur_fc_h : int array;
  mutable cur_fc_m : int array;
  mutable cur_em_h : int array;
  mutable cur_em_m : int array;
  mutable cur_accel : int;
  mutable cur_dma : int;
  mutable cur_up : int;
  mutable simh : Device.sim option;
  (* Window tracking: [win_cadence] mirrors the series' downsampling
     schedule (same max-window budget, same doubling), [cur_win] is
     [acc_now / win_cadence], [acc_now] the last accumulated timestamp
     (-1 when nothing is pending). *)
  mutable win_cadence : int;
  mutable cur_win : int;
  (* [cur_win]'s span in cycles, [win_lo, win_hi), empty when it is -1:
     a hook whose timestamp falls inside needs no division. *)
  mutable win_lo : int;
  mutable win_hi : int;
  mutable acc_now : int;
}

let mk_tenant ~max_w ~cad i =
  Array.map
    (fun (metric, kind) ->
      Ts.create ~max_windows:max_w
        ~name:(Printf.sprintf "tenant%d.%s" i metric)
        ~kind ~cadence:cad ())
    tenant_metrics

let mk_globals ~max_w ~cad =
  Array.map
    (fun (metric, kind) -> Ts.create ~max_windows:max_w ~name:metric ~kind ~cadence:cad ())
    global_metrics

let reset_shape t names =
  let n = Array.length names in
  t.names <- Array.copy names;
  t.tenants <- Array.init n (fun i -> mk_tenant ~max_w:t.max_w ~cad:t.cad i);
  t.globals <- mk_globals ~max_w:t.max_w ~cad:t.cad;
  t.accs <- Array.init n (fun _ -> fresh_tacc ());
  t.cur_fc_h <- Array.make n 0;
  t.cur_fc_m <- Array.make n 0;
  t.cur_em_h <- Array.make n 0;
  t.cur_em_m <- Array.make n 0;
  t.cur_accel <- 0;
  t.cur_dma <- 0;
  t.cur_up <- 0;
  t.simh <- None;
  t.win_cadence <- t.cad;
  t.cur_win <- -1;
  t.win_lo <- 0;
  t.win_hi <- 0;
  t.acc_now <- -1

let create ?(max_windows = 256) ?(cadence = 8192) () =
  if cadence <= 0 then invalid_arg "Telemetry.create: cadence must be positive";
  let t =
    {
      cad = cadence;
      max_w = max 8 max_windows;
      names = [||];
      tenants = [||];
      globals = [||];
      accs = [||];
      cur_fc_h = [||];
      cur_fc_m = [||];
      cur_em_h = [||];
      cur_em_m = [||];
      cur_accel = 0;
      cur_dma = 0;
      cur_up = 0;
      simh = None;
      win_cadence = cadence;
      cur_win = -1;
      win_lo = 0;
      win_hi = 0;
      acc_now = -1;
    }
  in
  reset_shape t [| "prog" |];
  t

let cadence t = t.cad
let tenant_names t = Array.copy t.names
let set_tenants t names = reset_shape t names

let fresh_like t =
  let f = create ~max_windows:t.max_w ~cadence:t.cad () in
  reset_shape f t.names;
  f

let[@inline] delta_agg series ~now cursor fresh =
  let d = fresh - cursor in
  if d > 0 then Ts.observe_agg series ~now ~sum:(float_of_int d) ~count:1;
  fresh

let flush t =
  if t.acc_now >= 0 then begin
    let now = t.acc_now in
    Array.iteri
      (fun i a ->
        let row = t.tenants.(i) in
        Ts.observe_agg row.(t_queue) ~now ~sum:(float_of_int a.q_sum) ~count:a.q_n;
        Ts.observe_agg row.(t_goodput) ~now ~sum:(float_of_int a.good) ~count:a.good;
        Ts.observe_agg row.(t_drops) ~now ~sum:(float_of_int a.drop) ~count:a.drop;
        Ts.observe_agg row.(t_latency) ~now ~sum:(float_of_int a.lat_sum) ~count:a.good;
        Ts.observe_agg row.(t_busy) ~now ~sum:(float_of_int a.busy_sum) ~count:a.good;
        Ts.observe_agg row.(t_deficit) ~now ~sum:(float_of_int a.def_sum) ~count:a.def_n;
        a.q_sum <- 0; a.q_n <- 0; a.good <- 0; a.drop <- 0;
        a.lat_sum <- 0; a.busy_sum <- 0; a.def_sum <- 0; a.def_n <- 0)
      t.accs;
    (match t.simh with
    | None -> ()
    | Some sim ->
        Array.iteri
          (fun i row ->
            t.cur_fc_h.(i) <-
              delta_agg row.(t_fc_hits) ~now t.cur_fc_h.(i)
                (Device.flow_cache_hits_of sim i);
            t.cur_fc_m.(i) <-
              delta_agg row.(t_fc_misses) ~now t.cur_fc_m.(i)
                (Device.flow_cache_misses_of sim i);
            t.cur_em_h.(i) <-
              delta_agg row.(t_emem_hits) ~now t.cur_em_h.(i)
                (Device.emem_hits_of sim i);
            t.cur_em_m.(i) <-
              delta_agg row.(t_emem_misses) ~now t.cur_em_m.(i)
                (Device.emem_misses_of sim i))
          t.tenants;
        t.cur_accel <-
          delta_agg t.globals.(g_accel_busy) ~now t.cur_accel
            (Device.accel_busy_cycles sim);
        t.cur_dma <-
          delta_agg t.globals.(g_dma_busy) ~now t.cur_dma
            (Device.dma_busy_cycles sim);
        t.cur_up <- delta_agg t.globals.(g_upcalls) ~now t.cur_up (Device.upcalls sim))
  end

(* Advance the window clock to [now], flushing if it left the current
   window.  [win_cadence] follows the same doubling schedule as the
   series themselves (same max-window budget), so flushes happen once
   per *current* window width, not once per base window. *)
let advance t now =
  while now / t.win_cadence >= t.max_w do
    t.win_cadence <- t.win_cadence * 2;
    t.cur_win <- -1
  done;
  let w = now / t.win_cadence in
  if w <> t.cur_win then begin
    flush t;
    t.cur_win <- w
  end;
  t.win_lo <- w * t.win_cadence;
  t.win_hi <- t.win_lo + t.win_cadence

let[@inline] tick t now =
  let now = if now < 0 then 0 else now in
  if now < t.win_lo || now >= t.win_hi then advance t now;
  t.acc_now <- now

let on_arrival t ~tenant ~now ~depth =
  tick t now;
  let a = t.accs.(tenant) in
  a.q_sum <- a.q_sum + depth;
  a.q_n <- a.q_n + 1

let on_drop t ~tenant ~now =
  tick t now;
  let a = t.accs.(tenant) in
  a.drop <- a.drop + 1

let on_deficit t ~tenant ~now ~credit =
  tick t now;
  let a = t.accs.(tenant) in
  a.def_sum <- a.def_sum + credit;
  a.def_n <- a.def_n + 1

let on_retire t ~sim ~tenant ~now ~latency ~service =
  tick t now;
  (match t.simh with None -> t.simh <- Some sim | Some _ -> ());
  let a = t.accs.(tenant) in
  a.good <- a.good + 1;
  a.lat_sum <- a.lat_sum + latency;
  a.busy_sum <- a.busy_sum + service

let absorb t srcs =
  flush t;
  List.iter
    (fun s ->
      flush s;
      if Array.length s.tenants <> Array.length t.tenants then
        invalid_arg "Telemetry.absorb: tenant counts disagree")
    srcs;
  let merge_cell own pick = Ts.merge (own :: List.map pick srcs) in
  t.tenants <-
    Array.mapi
      (fun i row -> Array.mapi (fun k s -> merge_cell s (fun src -> src.tenants.(i).(k))) row)
      t.tenants;
  t.globals <-
    Array.mapi (fun k s -> merge_cell s (fun src -> src.globals.(k))) t.globals

let series t =
  flush t;
  List.concat_map Array.to_list (Array.to_list t.tenants) @ Array.to_list t.globals

let to_json t =
  J.Obj
    [
      ("schema", J.Int 1);
      ("cadence", J.Int t.cad);
      ("tenants", J.List (List.map (fun n -> J.String n) (Array.to_list t.names)));
      ("series", J.List (List.map Ts.to_json (series t)));
    ]

let to_csv t =
  let b = Buffer.create 1024 in
  Buffer.add_string b Ts.csv_header;
  Buffer.add_char b '\n';
  List.iter
    (fun s ->
      List.iter
        (fun row ->
          Buffer.add_string b row;
          Buffer.add_char b '\n')
        (Ts.to_csv_rows s))
    (series t);
  Buffer.contents b
