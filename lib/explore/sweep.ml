(* Sweep orchestration: expand a Spec into cells, evaluate each cell
   through the full pipeline (parse -> coarsen -> dataflow -> ILP
   mapping -> latency/throughput/energy prediction) on a Domain pool,
   short-circuiting through the content-addressed cache, then
   post-process Pareto frontiers and per-NF best targets.

   The JSON report is deliberately free of anything volatile (wall
   clock, cache origins, domain count), so a sweep run with 1 domain
   and with N domains — or a cold and a warm cache — produces
   byte-identical JSON.  Timings, hit rates and utilization go to the
   text rendering and the lib/obs registry instead. *)

module W = Clara_workload
module L = Clara_lnic
module J = Clara_util.Json
module Pool = Clara_util.Pool

let obs = Clara_obs.Registry.default

(* Coordinator-side counters: workers report per-job outcomes through
   the pool, and the coordinator bumps these once per sweep so the
   numbers are exact (worker-side increments would race). *)
let c_cells = Clara_obs.Registry.counter obs "explore.cells"
let c_hits = Clara_obs.Registry.counter obs "explore.cache.hits"
let c_misses = Clara_obs.Registry.counter obs "explore.cache.misses"
let c_computed = Clara_obs.Registry.counter obs "explore.jobs.computed"
let c_failed = Clara_obs.Registry.counter obs "explore.jobs.failed"
let c_pruned = Clara_obs.Registry.counter obs "explore.cells.pruned"
let c_busy = Clara_obs.Registry.counter obs "explore.worker.busy_ns"
let c_wall = Clara_obs.Registry.counter obs "explore.sweep.wall_ns"

(* ---- per-cell metrics --------------------------------------------- *)

type metrics = {
  mean_cycles : float;
  p50_cycles : float;
  p99_cycles : float;
  freq_mhz : int;
  mean_us : float;
  p99_us : float;
  max_pps : float;
  gbps : float;
  nj_per_packet : float;
  watts : float;
}

type status =
  | Computed of metrics
  | Failed of string
  | Pruned of string
      (* Skipped before simulation: the static bounds analysis proved
         the cell cannot meet the sweep's SLO (its latency lower bound
         already exceeds it).  Never cached — a later run without the
         SLO, or with a looser one, must still compute the cell. *)

type outcome = {
  cell : Spec.cell;
  status : status;
  cached : bool;          (* served from the result cache *)
}

type run_stats = {
  domains : int;
  cells : int;
  cache_hits : int;
  cache_misses : int;     (* cache enabled, entry absent or corrupt *)
  failed : int;
  pruned : int;           (* closed by the static-bounds SLO predicate *)
  wall_ns : int;
  busy_ns : int;
  utilization : float;
}

type report = {
  spec : Spec.t;
  outcomes : outcome array;  (* indexed by cell id: spec order *)
  frontier : int list;       (* cell ids, spec order *)
  best : (string * (int option * int option)) list;
      (* nf -> (best-latency cell, best-throughput cell) *)
  stats : run_stats;
}

let metrics_to_json m =
  J.Obj
    [ ("mean_cycles", J.Float m.mean_cycles);
      ("p50_cycles", J.Float m.p50_cycles);
      ("p99_cycles", J.Float m.p99_cycles);
      ("freq_mhz", J.Int m.freq_mhz);
      ("mean_us", J.Float m.mean_us);
      ("p99_us", J.Float m.p99_us);
      ("max_pps", J.Float m.max_pps);
      ("gbps", J.Float m.gbps);
      ("nj_per_packet", J.Float m.nj_per_packet);
      ("watts", J.Float m.watts) ]

let metrics_of_json j =
  let f k = Option.bind (J.member k j) J.to_float_opt in
  let i k = Option.bind (J.member k j) J.to_int_opt in
  match
    ( f "mean_cycles", f "p50_cycles", f "p99_cycles", i "freq_mhz", f "mean_us",
      f "p99_us", f "max_pps", f "gbps", f "nj_per_packet", f "watts" )
  with
  | ( Some mean_cycles, Some p50_cycles, Some p99_cycles, Some freq_mhz,
      Some mean_us, Some p99_us, Some max_pps, Some gbps, Some nj_per_packet,
      Some watts ) ->
      Some
        { mean_cycles; p50_cycles; p99_cycles; freq_mhz; mean_us; p99_us;
          max_pps; gbps; nj_per_packet; watts }
  | _ -> None

(* ---- evaluating one cell ------------------------------------------ *)

let evaluate (cell : Spec.cell) =
  match L.Targets.of_name cell.Spec.nic_name with
  | Error e -> Error e
  | Ok lnic -> (
      let profile = cell.Spec.profile in
      match
        Clara.analyze_for_profile ~options:cell.Spec.options lnic
          ~source:cell.Spec.nf_source ~profile
      with
      | Error e -> Error e
      | Ok a ->
          let trace = W.Trace.synthesize ~seed:(Int64.of_int cell.Spec.seed) profile in
          let p = Clara.predict a trace in
          let sizes = a.Clara.sizes and prob = a.Clara.prob in
          let tp =
            Clara_predict.Throughput.estimate ~sizes ~prob lnic a.Clara.df
              a.Clara.mapping
          in
          let en =
            Clara_predict.Energy.estimate ~sizes ~prob
              ~rate_pps:profile.W.Profile.rate_pps lnic a.Clara.df a.Clara.mapping
          in
          let freq_mhz = L.Graph.freq_mhz lnic in
          let us cycles = cycles /. float_of_int freq_mhz in
          Ok
            { mean_cycles = p.Clara_predict.Latency.mean_cycles;
              p50_cycles = p.Clara_predict.Latency.p50_cycles;
              p99_cycles = p.Clara_predict.Latency.p99_cycles;
              freq_mhz;
              mean_us = us p.Clara_predict.Latency.mean_cycles;
              p99_us = us p.Clara_predict.Latency.p99_cycles;
              max_pps = tp.Clara_predict.Throughput.max_pps;
              gbps = tp.Clara_predict.Throughput.gbps_at_mean_packet;
              nj_per_packet = en.Clara_predict.Energy.nj_per_packet_total;
              watts = en.Clara_predict.Energy.watts_at_rate })

(* ---- the sweep ----------------------------------------------------- *)

let run ?(domains = 1) ?timeout_ms ?cache ?slo_p99_us (spec : Spec.t) =
  Clara_obs.Registry.span obs "sweep" @@ fun () ->
  let cells = Array.of_list spec.Spec.cells in
  let n = Array.length cells in
  (* Pre-simulation pruning: with an SLO, run the static bounds
     analysis once per distinct (nf, nic) pair on the coordinator (so
     worker domains never share mutable state) and close every cell
     whose latency {e lower} bound already exceeds the SLO — no
     placement or workload choice can save it. *)
  let prune_table =
    match slo_p99_us with
    | None -> []
    | Some slo ->
        Array.to_list cells
        |> List.map (fun (c : Spec.cell) ->
               ((c.Spec.nf_name, c.Spec.nic_name), c.Spec.nf_source))
        |> List.sort_uniq compare
        |> List.filter_map (fun ((nf, nic), source) ->
               match L.Targets.of_name nic with
               | Error _ -> None
               | Ok lnic -> (
                   match Clara_cir.Lower.of_source source with
                   | Error _ -> None
                   | Ok ir -> (
                       let ir = fst (Clara_cir.Patterns.run ir) in
                       let module B = Clara_analysis.Bounds in
                       let b = B.analyze ~lnic ir in
                       match B.find b "all" with
                       | Some row ->
                           let lo_us =
                             B.us_of b
                               (Clara_analysis.Interval.lo row.B.tb_total)
                           in
                           if lo_us > slo then
                             Some
                               ( (nf, nic),
                                 Printf.sprintf
                                   "static lower bound %.2f us exceeds SLO \
                                    p99 %.2f us"
                                   lo_us slo )
                           else None
                       | None -> None)))
  in
  let prune_of (c : Spec.cell) =
    List.assoc_opt (c.Spec.nf_name, c.Spec.nic_name) prune_table
  in
  (* The key digests the executable: hash it here, once, before the
     worker domains start.  An unreadable executable disables the cache. *)
  let cache =
    Option.bind cache (fun c -> Option.map (fun build -> (c, build)) (Key.build ()))
  in
  (* Only successful results are cached: a Failed cell (parse error,
     infeasible mapping, timeout) is recomputed on the next run so a
     transient failure cannot poison the cache. *)
  let job i =
    let cell = cells.(i) in
    let compute store =
      match evaluate cell with
      | Ok m ->
          Option.iter (fun (c, key) -> Cache.store c ~key (metrics_to_json m)) store;
          (Computed m, false)
      | Error e -> (Failed e, false)
    in
    match (prune_of cell, cache) with
    | Some reason, _ -> (Pruned reason, false)
    | None, None -> compute None
    | None, Some (c, build) -> (
        let key = Key.of_cell ~build ~salt:spec.Spec.salt cell in
        match Option.bind (Cache.lookup c ~key) metrics_of_json with
        | Some m -> (Computed m, true)
        | None -> compute (Some (c, key)) (* absent, or well-formed JSON of the wrong shape *))
  in
  let results, xstats = Pool.map ~domains ?timeout_ms job n in
  let outcomes =
    Array.mapi
      (fun i r ->
        match r with
        | Pool.Done (status, cached) -> { cell = cells.(i); status; cached }
        | Pool.Failed e -> { cell = cells.(i); status = Failed e; cached = false })
      results
  in
  let count p = Array.fold_left (fun n o -> if p o then n + 1 else n) 0 outcomes in
  let cache_hits = count (fun o -> o.cached) in
  let failed = count (fun o -> match o.status with Failed _ -> true | _ -> false) in
  let pruned = count (fun o -> match o.status with Pruned _ -> true | _ -> false) in
  let cache_misses =
    if Option.is_some cache then n - cache_hits - pruned else 0
  in
  let stats =
    { domains = xstats.Pool.domains;
      cells = n;
      cache_hits;
      cache_misses;
      failed;
      pruned;
      wall_ns = xstats.Pool.wall_ns;
      busy_ns = xstats.Pool.busy_ns;
      utilization = Pool.utilization xstats }
  in
  Clara_obs.Metrics.add c_cells n;
  Clara_obs.Metrics.add c_hits cache_hits;
  Clara_obs.Metrics.add c_misses cache_misses;
  Clara_obs.Metrics.add c_computed (n - cache_hits - pruned);
  Clara_obs.Metrics.add c_failed failed;
  Clara_obs.Metrics.add c_pruned pruned;
  Clara_obs.Metrics.add c_busy stats.busy_ns;
  Clara_obs.Metrics.add c_wall stats.wall_ns;
  (* Post-processing over the successful cells only. *)
  let ok_points =
    Array.to_list outcomes
    |> List.filter_map (fun o ->
           match o.status with
           | Computed m ->
               Some
                 ( o.cell.Spec.id,
                   { Frontier.p99_us = m.p99_us; max_pps = m.max_pps;
                     nj_per_packet = m.nj_per_packet } )
           | Failed _ | Pruned _ -> None)
  in
  let frontier = Frontier.pareto ok_points |> List.map fst in
  let nf_names =
    List.fold_left
      (fun acc (c : Spec.cell) ->
        if List.mem c.Spec.nf_name acc then acc else c.Spec.nf_name :: acc)
      [] spec.Spec.cells
    |> List.rev
  in
  let metrics_of id =
    match outcomes.(id).status with
    | Computed m -> Some m
    | Failed _ | Pruned _ -> None
  in
  let best =
    List.map
      (fun nf ->
        let mine =
          List.filter_map
            (fun (id, _) ->
              if outcomes.(id).cell.Spec.nf_name = nf then
                Option.map (fun m -> (id, m)) (metrics_of id)
              else None)
            ok_points
        in
        let by_latency =
          Frontier.best_by (fun (_, a) (_, b) -> compare a.p99_us b.p99_us) mine
        in
        let by_tput =
          Frontier.best_by (fun (_, a) (_, b) -> compare b.max_pps a.max_pps) mine
        in
        (nf, (Option.map fst by_latency, Option.map fst by_tput)))
      nf_names
  in
  { spec; outcomes; frontier; best; stats }

(* ---- output: JSON (deterministic), text, CSV ---------------------- *)

let cell_to_json (o : outcome) =
  let c = o.cell in
  let p = c.Spec.profile in
  let base =
    [ ("id", J.Int c.Spec.id);
      ("nf", J.String c.Spec.nf_name);
      ("nic", J.String c.Spec.nic_name);
      ("options", J.String c.Spec.opt_name);
      ("workload", J.String c.Spec.wl_label);
      ("rate_pps", J.Float p.W.Profile.rate_pps);
      ("payload_mean", J.Float (W.Profile.mean_payload p));
      ("flows", J.Int p.W.Profile.flow_count);
      ("tcp_fraction", J.Float p.W.Profile.tcp_fraction);
      ("packets", J.Int p.W.Profile.packets);
      ("seed", J.Int c.Spec.seed) ]
  in
  match o.status with
  | Computed m ->
      J.Obj (base @ [ ("status", J.String "ok"); ("metrics", metrics_to_json m) ])
  | Failed e ->
      J.Obj (base @ [ ("status", J.String "failed"); ("error", J.String e) ])
  | Pruned reason ->
      J.Obj (base @ [ ("status", J.String "pruned"); ("reason", J.String reason) ])

let to_json (r : report) =
  J.Obj
    [ ("schema", J.String "clara-sweep-report-v1");
      ("spec", J.String r.spec.Spec.name);
      ("cells", J.List (Array.to_list r.outcomes |> List.map cell_to_json));
      ("frontier", J.List (List.map (fun id -> J.Int id) r.frontier));
      ( "best",
        J.Obj
          (List.map
             (fun (nf, (lat, tput)) ->
               let cellref = function
                 | Some id ->
                     J.Obj
                       [ ("cell", J.Int id);
                         ("nic", J.String r.outcomes.(id).cell.Spec.nic_name);
                         ("options", J.String r.outcomes.(id).cell.Spec.opt_name) ]
                 | None -> J.Null
               in
               (nf, J.Obj [ ("best_latency", cellref lat); ("best_throughput", cellref tput) ]))
             r.best) ) ]

let csv_header =
  "id,nf,nic,options,workload,seed,status,cached,mean_cycles,p50_cycles,p99_cycles,mean_us,p99_us,max_pps,gbps,nj_per_packet,watts,error"

let csv_quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv (r : report) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  Array.iter
    (fun (o : outcome) ->
      let c = o.cell in
      let common =
        Printf.sprintf "%d,%s,%s,%s,%s,%d" c.Spec.id (csv_quote c.Spec.nf_name)
          c.Spec.nic_name c.Spec.opt_name c.Spec.wl_label c.Spec.seed
      in
      (match o.status with
      | Computed m ->
          Buffer.add_string buf
            (Printf.sprintf "%s,ok,%b,%g,%g,%g,%g,%g,%g,%g,%g,%g," common o.cached
               m.mean_cycles m.p50_cycles m.p99_cycles m.mean_us m.p99_us m.max_pps
               m.gbps m.nj_per_packet m.watts)
      | Failed e ->
          Buffer.add_string buf
            (Printf.sprintf "%s,failed,%b,,,,,,,,,%s" common o.cached (csv_quote e))
      | Pruned reason ->
          Buffer.add_string buf
            (Printf.sprintf "%s,pruned,%b,,,,,,,,,%s" common o.cached
               (csv_quote reason)));
      Buffer.add_char buf '\n')
    r.outcomes;
  Buffer.contents buf

let render fmt (r : report) =
  Format.fprintf fmt "sweep %s: %d cells@." r.spec.Spec.name r.stats.cells;
  Format.fprintf fmt "%-4s %-14s %-10s %-14s %-22s %-6s %12s %12s %12s %10s@." "id"
    "nf" "nic" "options" "workload" "state" "p99 us" "max pps" "nJ/pkt" "cached";
  Array.iter
    (fun (o : outcome) ->
      let c = o.cell in
      match o.status with
      | Computed m ->
          Format.fprintf fmt "%-4d %-14s %-10s %-14s %-22s %-6s %12.2f %12.0f %12.1f %10s@."
            c.Spec.id c.Spec.nf_name c.Spec.nic_name c.Spec.opt_name c.Spec.wl_label
            "ok" m.p99_us m.max_pps m.nj_per_packet
            (if o.cached then "hit" else "miss")
      | Failed e ->
          Format.fprintf fmt "%-4d %-14s %-10s %-14s %-22s %-6s %s@." c.Spec.id
            c.Spec.nf_name c.Spec.nic_name c.Spec.opt_name c.Spec.wl_label "FAILED" e
      | Pruned reason ->
          Format.fprintf fmt "%-4d %-14s %-10s %-14s %-22s %-6s %s@." c.Spec.id
            c.Spec.nf_name c.Spec.nic_name c.Spec.opt_name c.Spec.wl_label "PRUNED"
            reason)
    r.outcomes;
  if r.frontier <> [] then
    Format.fprintf fmt "@.pareto frontier (p99 latency / throughput / energy): cells %s@."
      (String.concat " " (List.map string_of_int r.frontier));
  List.iter
    (fun (nf, (lat, tput)) ->
      let show = function
        | Some id ->
            Printf.sprintf "%s/%s (cell %d)" r.outcomes.(id).cell.Spec.nic_name
              r.outcomes.(id).cell.Spec.opt_name id
        | None -> "-"
      in
      Format.fprintf fmt "best for %-14s latency: %-28s throughput: %s@." nf
        (show lat) (show tput))
    r.best;
  let s = r.stats in
  Format.fprintf fmt
    "@.%d cells: %d ok, %d failed, %d pruned | cache: %d hit / %d miss | %d domain%s, wall %.2f s, utilization %.0f%%@."
    s.cells (s.cells - s.failed - s.pruned) s.failed s.pruned s.cache_hits
    s.cache_misses s.domains
    (if s.domains = 1 then "" else "s")
    (float_of_int s.wall_ns /. 1e9)
    (100. *. s.utilization)
