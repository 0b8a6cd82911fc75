(* The Clara benchmark: per-cell answer time for the analysis pipeline,
   the predictor and the simulator, with a traced per-layer breakdown.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   A cell is one corpus NF on one target (12 NFs x netronome, soc,
   bluefield).  Every workload is a closed loop with a single caller:
   it answers the cells one after another, in passes, until [--seconds]
   have been measured.  With [--trace 0] the last stdout line holds the
   end-to-end metrics; with [--trace 1] it holds the per-layer metrics,
   each the benchmark's own timer around a public call, or a delta of a
   [Clara_obs.Registry] span or counter across one.  README.md describes the
   workloads, the metrics and the checks. *)

module L = Clara_lnic
module W = Clara_workload
module J = Clara_util.Json
module Lat = Clara_predict.Latency
module E = Clara_nicsim.Engine
module Reg = Clara_obs.Registry
module Metrics = Clara_obs.Metrics

let now = Unix.gettimeofday
let json j = J.to_string ~pretty:false j

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sum = List.fold_left ( +. ) 0.

(* Nearest-rank percentile. *)
let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* ------------------------------------------------------------------ *)
(* Cells *)

let targets = [ "netronome"; "soc"; "bluefield" ]

type cell = { nf : string; target : string; lnic : L.Graph.t; source : string }

let cell_id c = c.nf ^ "@" ^ c.target

let cells =
  List.concat_map
    (fun (e : Clara_nfs.Corpus.entry) ->
      List.map
        (fun t ->
          {
            nf = e.Clara_nfs.Corpus.name;
            target = t;
            lnic = Option.get (L.Targets.find t);
            source = e.Clara_nfs.Corpus.source;
          })
        targets)
    Clara_nfs.Corpus.all

(* The lpm port needs a hardware flow cache, which soc lacks. *)
let simulable c = not (c.nf = "lpm" && c.target = "soc")

(* Heavy-hitter's port keeps its counters in a table captured by the
   handler closure, so the two shards of one run share it and the
   result depends on the domain count. *)
let shardable c = c.nf <> "heavy-hitter"

(* A fresh simulator port per run, built with the arguments
   [Corpus.all] uses.  [Corpus.entry.ported] is one shared value whose
   closure state (heavy-hitter's counters) survives between runs. *)
let fresh_prog nf : Clara_nicsim.Device.prog =
  let open Clara_nfs in
  match nf with
  | "nat" -> Nat.ported ~checksum_engine:true ()
  | "lpm" -> Lpm.ported ~entries:8192 ~use_flow_cache:true ()
  | "firewall" -> Firewall.ported ~placement:Clara_nicsim.Device.P_imem ()
  | "dpi" -> Dpi.ported ()
  | "heavy-hitter" -> Heavy_hitter.ported ()
  | "vnf-chain" -> Vnf_chain.ported ()
  | "kv-store" -> Kv_store.ported ()
  | "load-balancer" -> Load_balancer.ported ()
  | "syn-proxy" -> Syn_proxy.ported ()
  | "ipsec-gw" -> Ipsec_gw.ported ()
  | "telemetry" -> Telemetry.ported ()
  | "tunnel-gw" -> Tunnel_gw.ported ()
  | other -> failwith ("perfbench: no port constructor for corpus NF " ^ other)

(* The predict/simulate trace: bimodal payloads, Zipf flows, 80% TCP
   opening with SYN, 1 Mpps.  Four flows per packet, the ratio of the
   20k-flow, 5k-packet sizing profile, so [prob_of_profile] gives the
   mapping the same guard probabilities at any trace length. *)
let trace_profile ~packets =
  W.Profile.make ~tcp_fraction:0.8 ~flow_count:(4 * packets)
    ~payload:(W.Dist.Bimodal (64, 1200, 0.6))
    ~rate_pps:1e6 ~packets ~new_flow_syn:true ()


(* ------------------------------------------------------------------ *)
(* Accumulators, checks and output digests *)

(* A named sum with the number of units (cells, packets, passes) it
   covers.  Stage timers always record; layer timers only when traced. *)
type acc = { mutable total : float; mutable units : float }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 64

let acc name =
  match Hashtbl.find_opt accs name with
  | Some a -> a
  | None ->
      let a = { total = 0.; units = 0. } in
      Hashtbl.add accs name a;
      a

let add name ~total ~units =
  let a = acc name in
  a.total <- a.total +. total;
  a.units <- a.units +. units

(* [--inject CHECK] corrupts the input of one correctness check, so the
   self-test can show that each check counts a failure. *)
let inject = ref ""
let fault name = !inject = name

(* Sum of every layer's self time, for the coverage check.  The
   [coverage] fault leaves out the largest layer of each workload. *)
let self_s = ref 0.

let layer_time name ~units dt =
  add name ~total:dt ~units;
  let dropped =
    List.exists
      (fun prefix -> String.starts_with ~prefix name)
      [ "mapping.solve"; "predict.attribute"; "nicsim.event" ]
  in
  (* The sharded simulation is timed outside simulate-trace's answer. *)
  let outside = String.starts_with ~prefix:"nicsim.sharded" name in
  if not (outside || (fault "coverage" && dropped)) then self_s := !self_s +. dt

(* A benchmark timer around one public call. *)
let span name ~units f =
  let r, dt = timed f in
  layer_time name ~units dt;
  r

(* The library's own Registry spans across [f]: each [(path, layer)]
   adds the time [f] spent in [path] to [layer]. *)
let span_ns path = Clara_obs.Span.total_ns (Reg.span_stats Reg.default path)

let registry_spans spans ~units f =
  let before = List.map (fun (path, _) -> span_ns path) spans in
  let r = f () in
  List.iter2
    (fun (path, layer) b -> layer_time layer ~units (1e-9 *. float_of_int (span_ns path - b)))
    spans before;
  r

(* Delta of a Registry counter across [f], summed under [name]; a
   [(name, counters)] pair sums several counters. *)
let count_delta names f =
  let value = List.fold_left (fun s n -> s + Reg.counter_value Reg.default n) 0 in
  let before = List.map (fun (_, cs) -> value cs) names in
  let r = f () in
  List.iter2
    (fun (n, cs) b -> add n ~total:(float_of_int (value cs - b)) ~units:1.)
    names before;
  r

let attempted = ref 0
let failed = ref 0

(* One answered cell: every named check must hold. *)
let record c checks =
  incr attempted;
  let bad = List.filter (fun (_, ok) -> not ok) checks in
  if bad <> [] then begin
    incr failed;
    List.iter (fun (what, _) -> Printf.eprintf "check failed: %s on %s\n%!" what (cell_id c)) bad
  end

(* First-pass outputs per group, digested in cell order. *)
let outputs : (string, (string * string) list) Hashtbl.t = Hashtbl.create 4

let output group c text =
  let l = Option.value ~default:[] (Hashtbl.find_opt outputs group) in
  Hashtbl.replace outputs group ((cell_id c, text) :: l)

let digest group =
  Option.map
    (fun l ->
      List.sort compare l
      |> List.map (fun (id, text) -> id ^ "\n" ^ text ^ "\n")
      |> String.concat "" |> Digest.string |> Digest.to_hex)
    (Hashtbl.find_opt outputs group)

(* A simulator result without its fast-path counters ([fast_*]). *)
let sim_json_without_fast r =
  match E.result_to_json r with
  | J.Obj fs -> json (J.Obj (List.filter (fun (k, _) -> not (String.starts_with ~prefix:"fast" k)) fs))
  | j -> json j

(* ------------------------------------------------------------------ *)
(* Workload groups *)

type group = {
  gname : string;
  pass : traced:bool -> first:bool -> (string * float) list;
      (** Answers every cell once; returns each cell's answer time.
          [first] records outputs for the digest and runs the checks
          that cost an extra call. *)
}

(* ---- analyze-corpus: analyze + bounds from DSL source ---- *)

(* One answer: what [clara analyze] and [clara bounds] do.  Traced, the
   same calls run, with [layer] timing the calls made here and the
   Registry spans of [Pipeline.analyze] timing its stages. *)
type layer = { run : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { run = (fun _ f -> f ()) }

let answer ?(layer = untimed) ~profile c =
  let a = Clara.analyze_for_profile c.lnic ~source:c.source ~profile in
  let ir = layer.run "cir.lower" (fun () -> Clara_cir.Lower.lower_source c.source) in
  let ir = fst (layer.run "cir.coarsen" (fun () -> Clara_cir.Patterns.run ir)) in
  (a, layer.run ("bounds.analyze." ^ c.target) (fun () -> Clara_analysis.Bounds.analyze ~lnic:c.lnic ir))

let traced_answer ~profile c =
  let t = c.target in
  add "analysis.cells" ~total:0. ~units:1.;
  add ("analysis.cells." ^ t) ~total:0. ~units:1.;
  count_delta
    [ ("ilp.simplex.pivots", [ "ilp.simplex.pivots" ]);
      ("ilp.bb.nodes", [ "ilp.bb.nodes" ]);
      ("ilp.bb.cutoff_prunes", [ "ilp.bb.cutoff_prunes" ]);
      ("mapping.ilp.vars", [ "mapping.ilp.vars" ]);
      ("mapping.ilp.constraints", [ "mapping.ilp.constraints" ]);
      ("analysis.diagnostics", [ "analysis.errors"; "analysis.warnings"; "analysis.infos" ]) ]
    (fun () ->
      registry_spans ~units:0.
        [ ("pipeline/lower", "cir.lower");
          ("pipeline/coarsen", "cir.coarsen");
          ("pipeline/lint", "analysis.suite." ^ t);
          ("pipeline/dataflow", "dataflow.build");
          ("pipeline/mapping", "mapping.solve." ^ t) ]
        (fun () -> answer ~layer:{ run = (fun name f -> span name ~units:0. f) } ~profile c))

let analyze_group ~seed =
  let profile = W.Profile.default in
  (* Warm-up pass: caches and lazily built state fill before timing. *)
  List.iter (fun c -> ignore (answer ~profile c)) cells;
  let rng = Random.State.make [| seed |] in
  let greedy = Hashtbl.create 64 in
  let greedy_objective c (a : Clara.analysis) =
    match Hashtbl.find_opt greedy (cell_id c) with
    | Some g -> g
    | None ->
        let g =
          match
            Clara_mapping.Greedy.map_nf ~options:a.Clara.options c.lnic a.Clara.df
              ~sizes:(Clara.sizes_of_profile profile) ~prob:(Clara.prob_of_profile profile)
          with
          | Ok m -> m.Clara_mapping.Mapping.objective_cycles
          | Error _ -> Float.infinity
        in
        Hashtbl.add greedy (cell_id c) g;
        g
  in
  let shuffled () =
    let a = Array.of_list cells in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.to_list a
  in
  let pass ~traced ~first =
    if traced then add "analysis.passes" ~total:0. ~units:1.;
    List.map
      (fun c ->
        let (a, b), dt =
          timed (fun () -> if traced then traced_answer ~profile c else answer ~profile c)
        in
        let a = if fault "analyze-ok" then Error "injected" else a in
        let ilp_ok =
          match a with
          | Error _ -> false
          | Ok a ->
              let g = greedy_objective c a in
              let g = if fault "ilp-vs-greedy" then g -. 2. else g in
              a.Clara.mapping.Clara_mapping.Mapping.objective_cycles <= g +. 1.
        in
        record c [ ("analyze-ok", Result.is_ok a); ("ilp-vs-greedy", ilp_ok) ];
        if first then
          output "analyze-corpus" c
            (Printf.sprintf "objective=%s bounds=%s"
               (match a with
               | Ok a -> Printf.sprintf "%h" a.Clara.mapping.Clara_mapping.Mapping.objective_cycles
               | Error e -> "error " ^ e)
               (json (Clara_analysis.Bounds.to_json b)));
        (cell_id c, dt))
      (shuffled ())
  in
  { gname = "analyze-corpus"; pass }

(* ---- the shared trace, and the analyses built once in setup ---- *)

let synth ~seed ~packets =
  let tr, dt =
    timed (fun () -> W.Trace.synthesize ~seed:(Int64.of_int seed) (trace_profile ~packets))
  in
  add "workload.synth" ~total:dt ~units:1.;
  let flows = Hashtbl.create 4096 in
  Array.iter (fun p -> Hashtbl.replace flows (W.Packet.flow_key p) ()) tr.W.Trace.packets;
  add "workload.distinct_flows" ~total:(float_of_int (Hashtbl.length flows)) ~units:1.;
  tr

let analyses ~profile =
  List.map
    (fun c ->
      match Clara.analyze_for_profile c.lnic ~source:c.source ~profile with
      | Ok a -> (c, a)
      | Error e -> failwith (Printf.sprintf "perfbench: %s does not analyze: %s" (cell_id c) e))
    cells

(* ---- predict-trace: Clara.predict and the components walk ---- *)

let traced_cells = Hashtbl.create 64

(* True the first time a traced pass of [group] reaches [c]. *)
let first_traced group c =
  let k = group ^ " " ^ cell_id c in
  if Hashtbl.mem traced_cells k then false
  else begin
    Hashtbl.add traced_cells k ();
    true
  end

(* The share of a bluefield prediction that the eSwitch miss path adds:
   the prediction against one where every flow-cache lookup hits.  It
   is 0 when no mapped node uses the eSwitch. *)
let eswitch_miss_share c (a : Clara.analysis) trace (pred : Lat.prediction) =
  if c.target = "bluefield" then begin
    let config = { Lat.default_config with Lat.flow_cache_hit_ratio = Some 1. } in
    let all_hit = Clara.predict ~config a trace in
    add "predict.eswitch_miss_share" ~units:1.
      ~total:((pred.Lat.mean_cycles -. all_hit.Lat.mean_cycles) /. pred.Lat.mean_cycles)
  end

let predict_group ~seed ~packets =
  let trace = synth ~seed ~packets in
  let analyses = analyses ~profile:(trace_profile ~packets) in
  let n = float_of_int (Array.length trace.W.Trace.packets) in
  (* Traced, the walk is [Clara.predict]'s own Registry span, so it
     includes [Latency.create]; [predict.create] times the create
     before the components walk. *)
  let pass ~traced ~first =
    List.map
      (fun (c, (a : Clara.analysis)) ->
        let t = c.target in
        let layer name ~units f = if traced then span name ~units f else f () in
        let pred, t_pred =
          timed (fun () ->
              if traced then
                registry_spans ~units:n [ ("predict", "predict.walk." ^ t) ] (fun () ->
                    Clara.predict a trace)
              else Clara.predict a trace)
        in
        let att, t_att =
          timed (fun () ->
              let p =
                layer "predict.create" ~units:1. (fun () ->
                    Lat.create a.Clara.lnic a.Clara.df a.Clara.mapping)
              in
              layer ("predict.attribute." ^ t) ~units:n (fun () -> Lat.attribute_trace p trace))
        in
        if traced && first_traced "predict" c then eswitch_miss_share c a trace pred;
        add "stage.predict" ~total:t_pred ~units:n;
        add "stage.attribute" ~total:t_att ~units:n;
        let att =
          if fault "att-mean" then { att with Lat.att_mean = att.Lat.att_mean +. 1. } else att
        in
        let rows =
          match att.Lat.att_rows with
          | r :: rest when fault "att-components" -> { r with Lat.at_total = r.Lat.at_total +. 1. } :: rest
          | rows -> rows
        in
        let mean_ok =
          Int64.equal (Int64.bits_of_float att.Lat.att_mean) (Int64.bits_of_float pred.Lat.mean_cycles)
        in
        let parts_ok =
          List.for_all
            (fun (r : Lat.att_row) ->
              let s = r.Lat.at_compute +. r.Lat.at_mem +. r.Lat.at_accel +. r.Lat.at_wire in
              Float.abs (s -. r.Lat.at_total) <= 1e-9 *. Float.max 1. (Float.abs r.Lat.at_total))
            rows
        in
        record c [ ("att-mean", mean_ok); ("att-components", parts_ok) ];
        if first then
          output "predict-trace" c
            (Printf.sprintf "mean=%h p50=%h p99=%h tcp=%h udp=%h syn=%h emitted=%h rows=%s"
               pred.Lat.mean_cycles pred.Lat.p50_cycles pred.Lat.p99_cycles pred.Lat.tcp_mean
               pred.Lat.udp_mean pred.Lat.syn_mean pred.Lat.emitted_fraction
               (String.concat ";"
                  (List.map
                     (fun (r : Lat.att_row) ->
                       Printf.sprintf "%s:%d:%h:%h:%h:%h" r.Lat.at_type r.Lat.at_count
                         r.Lat.at_compute r.Lat.at_mem r.Lat.at_accel r.Lat.at_wire)
                     rows)));
        (cell_id c, t_pred +. t_att))
      analyses
  in
  { gname = "predict-trace"; pass }

(* ---- simulate-trace: event path, the CLI's Auto policy, sharded ---- *)

(* Queue-depth buckets summed over the traced event runs. *)
let qdepth : (int, int) Hashtbl.t = Hashtbl.create 16
let h_qdepth = Reg.histogram Reg.default "nicsim.queue_depth"

let simulate_group ~seed ~packets ~domains =
  let trace = synth ~seed ~packets in
  (* Set-up does predict-trace's work too, so the two setup_s compare. *)
  ignore (analyses ~profile:(trace_profile ~packets));
  let stateless =
    List.map
      (fun (e : Clara_nfs.Corpus.entry) ->
        ( e.Clara_nfs.Corpus.name,
          Clara_analysis.Sharing.stateless (Clara_cir.Lower.lower_source e.Clara_nfs.Corpus.source) ))
      Clara_nfs.Corpus.all
  in
  let n = float_of_int (Array.length trace.W.Trace.packets) in
  let sim_cells = List.filter simulable cells in
  let pass ~traced ~first =
    if traced then add "nicsim.passes" ~total:0. ~units:1.;
    List.map
      (fun c ->
        let layer name f = if traced then span (name ^ "." ^ c.target) ~units:n f else f () in
        let fast =
          if List.assoc c.nf stateless then E.Auto { warmup = packets / 4 } else E.Event_only
        in
        let p_event = fresh_prog c.nf and p_auto = fresh_prog c.nf and p_shard = fresh_prog c.nf in
        if traced then Metrics.reset_histogram h_qdepth;
        let ev, t_ev = timed (fun () -> layer "nicsim.event" (fun () -> E.run c.lnic p_event trace)) in
        if traced then
          List.iter
            (fun (ub, k) ->
              Hashtbl.replace qdepth ub (k + Option.value ~default:0 (Hashtbl.find_opt qdepth ub)))
            (Metrics.nonzero_buckets h_qdepth);
        let au, t_au =
          timed (fun () -> layer "nicsim.auto" (fun () -> E.run ~fast c.lnic p_auto trace))
        in
        let sh =
          if shardable c then
            Some
              (timed (fun () ->
                   layer "nicsim.sharded" (fun () ->
                       E.run_sharded ~domains ~shards:2 c.lnic p_shard trace)))
          else None
        in
        add "stage.event" ~total:t_ev ~units:n;
        add "stage.auto" ~total:t_au ~units:n;
        Option.iter
          (fun (_, t) ->
            add "stage.sharded" ~total:t ~units:n;
            add "stage.event_shardable" ~total:t_ev ~units:n)
          sh;
        if traced then begin
          let s = ev.E.summary in
          add "nicsim.drops" ~total:(float_of_int s.Clara_nicsim.Stats.drops)
            ~units:(float_of_int (s.Clara_nicsim.Stats.packets + s.Clara_nicsim.Stats.drops));
          let f = au.E.fast in
          add "nicsim.fast.replayed" ~units:0.
            ~total:(float_of_int f.Clara_nicsim.Fastpath.replayed);
          add "nicsim.fast.executed" ~units:0.
            ~total:(float_of_int f.Clara_nicsim.Fastpath.executed);
          add "nicsim.fast.poisoned" ~units:0.
            ~total:(float_of_int f.Clara_nicsim.Fastpath.poisoned)
        end;
        let ev_json = json (E.result_to_json ev) in
        let auto_ok =
          sim_json_without_fast au
          = (if fault "auto-vs-event" then "{}" else sim_json_without_fast ev)
        in
        let shard_ok =
          match sh with
          | Some (r, _) when first ->
              let one = E.run_sharded ~domains:1 ~shards:2 c.lnic (fresh_prog c.nf) trace in
              let one = json (E.result_to_json one) in
              let one = if fault "sharded-domains" then one ^ " " else one in
              String.equal one (json (E.result_to_json r))
          | _ -> true
        in
        record c [ ("auto-vs-event", auto_ok); ("sharded-domains", shard_ok) ];
        if first then
          output "simulate-trace" c
            (Printf.sprintf "event=%s auto=%s sharded=%s" ev_json
               (json (E.result_to_json au))
               (match sh with Some (r, _) -> json (E.result_to_json r) | None -> "excluded"));
        (* The answer is the two single-domain runs.  The sharded run
           keeps both cores busy, so load on the host's other core
           slows it in a way the single-core host reference does not
           see; it is reported as [sim_sharded_pps] and per layer. *)
        (cell_id c, t_ev +. t_au))
      sim_cells
  in
  { gname = "simulate-trace"; pass }

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let ratio name = let a = acc name in a.total /. a.units
let rate name = let a = acc name in a.units /. a.total

let analysis_layers () =
  let per_cell key t =
    let cells = match t with None -> "analysis.cells" | Some t -> "analysis.cells." ^ t in
    let key = match t with None -> key | Some t -> key ^ "." ^ t in
    1e3 *. (acc key).total /. (acc cells).units
  in
  let per_pass key = (acc key).total /. (acc "analysis.passes").units in
  [ m "cir.lower_ms" "ms" (per_cell "cir.lower" None);
    m "cir.coarsen_ms" "ms" (per_cell "cir.coarsen" None);
    m "dataflow.build_ms" "ms" (per_cell "dataflow.build" None) ]
  @ List.concat_map
      (fun t ->
        [ m ("analysis.suite_ms." ^ t) "ms" (per_cell "analysis.suite" (Some t));
          m ("bounds.analyze_ms." ^ t) "ms" (per_cell "bounds.analyze" (Some t));
          m ("mapping.solve_ms." ^ t) "ms" (per_cell "mapping.solve" (Some t)) ])
      targets
  @ [ m "ilp.simplex.pivots" "count" (per_pass "ilp.simplex.pivots");
      m "ilp.bb.nodes" "count" (per_pass "ilp.bb.nodes");
      m "ilp.bb.cutoff_prunes" "count" (per_pass "ilp.bb.cutoff_prunes");
      m "ilp.bb.cutoff_prune_ratio" "ratio"
        ((acc "ilp.bb.cutoff_prunes").total /. (acc "ilp.bb.nodes").total);
      m "mapping.ilp.vars" "count" (per_pass "mapping.ilp.vars");
      m "mapping.ilp.constraints" "count" (per_pass "mapping.ilp.constraints");
      m "analysis.diagnostics" "count" (per_pass "analysis.diagnostics") ]

let predict_layers () =
  List.concat_map
    (fun t ->
      [ m ("predict.walk_us_per_pkt." ^ t) "us" (1e6 *. ratio ("predict.walk." ^ t));
        m ("predict.attribute_us_per_pkt." ^ t) "us" (1e6 *. ratio ("predict.attribute." ^ t)) ])
    targets
  @ [ m "predict.create_ms" "ms" (1e3 *. ratio "predict.create");
      m "predict.eswitch_miss_share.bluefield" "ratio" (ratio "predict.eswitch_miss_share");
      m "predict_pps" "1/s" (rate "stage.predict");
      m "attribute_pps" "1/s" (rate "stage.attribute") ]

let qdepth_p99 () =
  let buckets = List.sort compare (List.of_seq (Hashtbl.to_seq qdepth)) in
  let total = List.fold_left (fun s (_, k) -> s + k) 0 buckets in
  let rank = int_of_float (Float.ceil (0.99 *. float_of_int total)) in
  let rec go seen = function
    | [] -> 0
    | (ub, k) :: rest -> if seen + k >= rank then ub else go (seen + k) rest
  in
  float_of_int (go 0 buckets)

let nicsim_layers () =
  let replayed = (acc "nicsim.fast.replayed").total in
  List.concat_map
    (fun t ->
      List.map
        (fun mode ->
          m (Printf.sprintf "nicsim.%s_us_per_pkt.%s" mode t) "us"
            (1e6 *. ratio (Printf.sprintf "nicsim.%s.%s" mode t)))
        [ "event"; "auto"; "sharded" ])
    targets
  @ [ m "nicsim.fast.replayed_frac" "ratio"
        (replayed /. (replayed +. (acc "nicsim.fast.executed").total));
      m "nicsim.fast.poisoned" "count"
        ((acc "nicsim.fast.poisoned").total /. (acc "nicsim.passes").units);
      m "nicsim.shard_speedup" "ratio"
        ((acc "stage.event_shardable").total /. (acc "stage.sharded").total);
      m "nicsim.drop_frac" "ratio" (ratio "nicsim.drops");
      m "nicsim.queue_depth_p99" "count" (qdepth_p99 ());
      m "sim_event_pps" "1/s" (rate "stage.event");
      m "sim_auto_pps" "1/s" (rate "stage.auto");
      m "sim_sharded_pps" "1/s" (rate "stage.sharded") ]

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ------------------------------------------------------------------ *)
(* Host speed *)

(* A shared host slows whole stretches of a run, for minutes at a time
   and by up to a half, without stealing CPU time from the process (its
   CPU time grows with its wall time).  No statistic taken inside one
   run removes that, so every timed pass and set-up is bracketed by a
   fixed piece of reference work that uses no Clara code: sorting boxed
   records, a hash table, a string map and a dense float elimination,
   the kinds of work the three workloads do, allocation included.  Its
   time says how fast the host runs at that moment.  The end-to-end
   times are scaled by [ref_nominal_s] / (mean of the reference times
   just before and just after), i.e. reported at the speed of a host on
   which the reference work takes [ref_nominal_s], about what it takes
   on the 2-vCPU VM of the README's baseline when the VM is quiet.
   A change to Clara moves the reference time only through the GC work
   its own allocations leave behind; README.md gives the unscaled
   figures beside the scaled ones. *)
let ref_nominal_s = 0.007

type ref_rec = { key : int; weight : float; tag : string }

let host_ref () =
  let rng = Random.State.make [| 42 |] in
  let recs =
    List.init 6000 (fun i ->
        { key = Random.State.int rng 1_000_000; weight = Random.State.float rng 1.; tag = string_of_int i })
  in
  let sorted = List.sort (fun a b -> compare (a.key, a.weight) (b.key, b.weight)) recs in
  let h = Hashtbl.create 1024 in
  List.iter (fun r -> Hashtbl.replace h r.key r) sorted;
  let hits = ref 0 in
  for i = 0 to 24_000 do
    if Hashtbl.mem h (i * 40) then incr hits
  done;
  let module M = Map.Make (String) in
  let m = List.fold_left (fun m r -> M.add r.tag r.weight m) M.empty recs in
  let s = ref (float_of_int !hits) in
  M.iter (fun _ w -> s := !s +. w) m;
  let n = 32 in
  let a = Array.init n (fun i -> Array.init n (fun j -> if i = j then float_of_int n else Random.State.float rng 1.)) in
  for k = 0 to n - 1 do
    for i = k + 1 to n - 1 do
      let f = a.(i).(k) /. a.(k).(k) in
      for j = k to n - 1 do
        a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
      done
    done
  done;
  ignore (Sys.opaque_identity (!s +. a.(n - 1).(n - 1)))

(* The last reference time and when it was taken: a reference taken
   just now is the "before" of the next timed call. *)
let last_ref = ref (neg_infinity, 0.)
let ref_times = ref []

(* The median of [reps] reference runs. *)
let host_ref_s ~reps =
  let dt = percentile 0.5 (List.init reps (fun _ -> snd (timed host_ref))) in
  last_ref := (now (), dt);
  ref_times := dt :: !ref_times;
  dt

(* [f]'s result, its wall time and the host-speed scale around it.  The
   reference after [f] takes about 5% of [f]'s time, 1 to 9 runs. *)
let scaled f =
  let taken, dt = !last_ref in
  let before = if now () -. taken < 1e-3 then dt else host_ref_s ~reps:1 in
  let r, dt = timed f in
  let reps = max 1 (min 9 (int_of_float (0.05 *. dt /. ref_nominal_s))) in
  let after = host_ref_s ~reps in
  (r, dt, ref_nominal_s /. (0.5 *. (before +. after)))

(* ------------------------------------------------------------------ *)
(* Runs *)

let workloads = [ "analyze-corpus"; "predict-trace"; "simulate-trace" ]

let make_group ~seed ~packets ~domains = function
  | "analyze-corpus" -> analyze_group ~seed
  | "predict-trace" -> predict_group ~seed ~packets
  | "simulate-trace" -> simulate_group ~seed ~packets ~domains
  | w -> invalid_arg ("unknown workload " ^ w)

(* Whole passes until [seconds] are measured and at least [min_passes]
   are done; returns each pass's answer times with its host-speed scale. *)
let measure ?(min_passes = 1) ?(between = fun ~elapsed:_ -> ()) g ~traced ~seconds =
  let t0 = now () in
  let rec go passes n =
    if n >= min_passes && now () -. t0 >= seconds then passes
    else begin
      let p, _, scale = scaled (fun () -> g.pass ~traced ~first:(n = 0)) in
      between ~elapsed:(now () -. t0);
      go ((p, scale) :: passes) (n + 1)
    end
  in
  go [] 0

(* A run's answer percentiles are each pass's percentile over its cells,
   then the median across passes.  Every pass holds every cell, so the
   program's own slow answers (a netronome ILP, a major GC slice) stay in
   each pass; a load spike from another tenant of the host moves only the
   passes it overlaps.  At least 3 passes give 105 or more answers. *)
let min_passes = 3

let across_passes ?(scaled = true) q passes =
  percentile 0.5
    (List.map (fun (p, s) -> (if scaled then s else 1.) *. percentile q (List.map snd p)) passes)

(* Set-up runs once before the measured passes and [setup_repeats] more
   times spread over them.  The first is cold (lazily built state,
   a young heap) and is left out; setup_s is the median of the rest. *)
let setup_repeats = 15

let untraced_run ~workload ~seed ~packets ~domains ~seconds =
  let setup () = scaled (fun () -> make_group ~seed ~packets ~domains workload) in
  let g, _, _ = setup () in
  let setups = ref [] in
  let between ~elapsed =
    let k = List.length !setups in
    if k < setup_repeats && elapsed >= float_of_int k *. seconds /. float_of_int setup_repeats
    then setups := (let _, dt, s = setup () in (dt, s)) :: !setups
  in
  let passes = measure g ~traced:false ~seconds ~min_passes ~between in
  while List.length !setups < setup_repeats do
    between ~elapsed:seconds
  done;
  let answers = List.concat_map (fun (p, _) -> List.map snd p) passes in
  let scaled_total = sum (List.map (fun (p, s) -> s *. sum (List.map snd p)) passes) in
  let info =
    match workload with
    | "predict-trace" ->
        [ m "predict_pps" "1/s" (rate "stage.predict"); m "attribute_pps" "1/s" (rate "stage.attribute") ]
    | "simulate-trace" ->
        [ m "sim_event_pps" "1/s" (rate "stage.event"); m "sim_auto_pps" "1/s" (rate "stage.auto");
          m "sim_sharded_pps" "1/s" (rate "stage.sharded") ]
    | _ -> []
  in
  ( [ m "setup_s" "s" (percentile 0.5 (List.map (fun (dt, s) -> dt *. s) !setups));
      m "answer_ms_p50" "ms" (1e3 *. across_passes 0.5 passes);
      m "answer_ms_p90" "ms" (1e3 *. across_passes 0.9 passes);
      m "answers_per_s" "1/s" (float_of_int (List.length answers) /. scaled_total);
      m "peak_heap_mb" "MB" (peak_heap_mb ()) ],
    info
    @ [ m "wall.setup_s" "s" (percentile 0.5 (List.map fst !setups));
        m "wall.answer_ms_p50" "ms" (1e3 *. across_passes ~scaled:false 0.5 passes);
        m "wall.answer_ms_p90" "ms" (1e3 *. across_passes ~scaled:false 0.9 passes);
        m "wall.answers_per_s" "1/s" (float_of_int (List.length answers) /. sum answers);
        m "host.ref_ms_p50" "ms" (1e3 *. percentile 0.5 !ref_times);
        m "passes" "count" (float_of_int (List.length passes));
        m "answers" "count" (float_of_int (List.length answers)) ],
    true )

(* The workload's own group alternates untraced and traced passes for
   most of the time; the other two groups get one traced share each,
   so every layer is measured in every traced run. *)
let traced_run ~workload ~seed ~packets ~domains ~seconds =
  let groups = List.map (fun w -> make_group ~seed ~packets ~domains w) workloads in
  let own = List.find (fun g -> g.gname = workload) groups in
  let untraced = ref 0. and traced = ref 0. and self = ref 0. in
  let t0 = now () in
  let first = ref true in
  while !first || now () -. t0 < 0.6 *. seconds do
    untraced := !untraced +. sum (List.map snd (own.pass ~traced:false ~first:!first));
    first := false;
    let s0 = !self_s in
    traced := !traced +. sum (List.map snd (own.pass ~traced:true ~first:false));
    self := !self +. (!self_s -. s0)
  done;
  List.iter
    (fun g ->
      if g.gname <> workload then
        ignore (measure g ~traced:true ~seconds:(0.2 *. seconds)))
    groups;
  (* A traced pass makes the untraced pass's public calls, so its wall
     time is theirs plus the timers' cost.  The layers must account for
     it: the time no layer measured, (traced - self) / untraced =
     overhead - coverage, must stay within 5% of the untraced time. *)
  let overhead = !traced /. !untraced and coverage = !self /. !untraced in
  let covered = Float.abs (overhead -. coverage) <= 0.05 in
  incr attempted;
  if not covered then begin
    incr failed;
    Printf.eprintf "coverage check failed: layers cover %.3f of the untraced answer time, \
                    traced passes take %.3f of it\n%!" coverage overhead
  end;
  ( analysis_layers () @ predict_layers () @ nicsim_layers ()
    @ [ m "workload.synth_ms" "ms" (1e3 *. ratio "workload.synth");
        m "workload.distinct_flows" "count" (ratio "workload.distinct_flows");
        m "trace.overhead" "ratio" overhead;
        m "trace.coverage" "ratio" coverage ],
    [],
    covered )

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let packets = ref 1000 and commit = ref "unknown" and nproc = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--packets", Arg.Set_int packets, " trace length for predict/simulate (default 1000)");
      ("--inject", Arg.Set_string inject, " corrupt one correctness check's input");
      ("--commit", Arg.Set_string commit, " source revision, for provenance");
      ("--nproc", Arg.Set_int nproc, " host core count, for provenance") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  List.iter
    (fun (e : Clara_nfs.Corpus.entry) ->
      let fresh = (fresh_prog e.Clara_nfs.Corpus.name).Clara_nicsim.Device.name in
      if fresh <> e.Clara_nfs.Corpus.ported.Clara_nicsim.Device.name then
        failwith ("perfbench: port constructor mismatch for " ^ e.Clara_nfs.Corpus.name))
    Clara_nfs.Corpus.all;
  let domains = min 2 (Domain.recommended_domain_count ()) in
  let run = if !trace = 1 then traced_run else untraced_run in
  let metrics, info, covered =
    run ~workload:!workload ~seed:!seed ~packets:!packets ~domains ~seconds:!seconds
  in
  print_endline
    (json
       (J.Obj
          [ ("workload", J.String !workload);
            ("seed", J.Int !seed);
            ("trace", J.Int !trace);
            ("git_commit", J.String !commit);
            ("ocaml_version", J.String Sys.ocaml_version);
            ("nproc", J.Int !nproc);
            ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
            ("sharded_domains", J.Int domains);
            ("packets", J.Int !packets);
            ("host", J.String (Unix.gethostname ())) ]));
  List.iter
    (fun g -> Option.iter (Printf.printf "digest %s %s\n" g) (digest g))
    workloads;
  List.iter (fun x -> Printf.printf "%-36s %16.6f %s\n" x.name x.value x.unit_) (metrics @ info);
  Printf.printf "%-36s %16.6f %s\n" "failed_frac"
    (float_of_int !failed /. float_of_int (max 1 !attempted)) "ratio";
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  if not finite then prerr_endline "perfbench: a metric is not finite";
  print_endline
    (json
       (J.Obj
          [ ("correct", J.Bool (!failed = 0 && covered && finite));
            ("attempted", J.Int !attempted);
            ("failed", J.Int !failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun x -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit_) ]))
                   metrics) ) ]))
