(* Tests for the per-packet tracing layer: ring-buffer sink semantics,
   the tiling invariant attribution relies on, tracing's zero effect on
   simulation results, two-tenant event tagging, Perfetto export, and the
   predictor-side attribution. *)

module Trace = Clara_nicsim.Trace
module Attr = Clara_nicsim.Attribution
module Export = Clara_nicsim.Trace_export
module Dev = Clara_nicsim.Device
module Eng = Clara_nicsim.Engine
module Stats = Clara_nicsim.Stats
module Lat = Clara_predict.Latency
module J = Clara_util.Json
module L = Clara_lnic
module W = Clara_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lnic = L.Netronome.default

let workload ?(tcp = 0.8) ?(rate = 60_000.) ~packets () =
  W.Trace.synthesize ~seed:5L
    (W.Profile.make ~packets ~rate_pps:rate ~flow_count:100 ~tcp_fraction:tcp
       ~payload:(W.Dist.Fixed 300) ())

let nat = Clara_nfs.Nat.ported ~checksum_engine:true

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)

let test_ring_semantics () =
  let t = Trace.create ~limit:10 () in
  check_int "empty" 0 (Array.length (Trace.events t));
  for i = 0 to 24 do
    Trace.record t ~seq:i ~prog:0 ~thread:0 ~kind:Trace.Compute ~label:"x"
      ~t0:i ~t1:(i + 1) ~arg:0
  done;
  let evs = Trace.events t in
  check_int "bounded by limit" 10 (Array.length evs);
  check_int "total counts everything" 25 (Trace.total t);
  check_int "dropped = total - retained" 15 (Trace.dropped t);
  check_int "oldest surviving event" 15 evs.(0).Trace.seq;
  check "oldest-first order" true
    (Array.for_all (fun i -> evs.(i).Trace.seq < evs.(i + 1).Trace.seq)
       (Array.init 9 Fun.id));
  Trace.clear t;
  check_int "clear forgets events" 0 (Array.length (Trace.events t));
  check_int "clear resets total" 0 (Trace.total t);
  check "limit < 1 rejected" true
    (try ignore (Trace.create ~limit:0 ()); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Tracing must not change simulation results                          *)

(* NAT, and the LPM walk over the corpus's 8,192 rules on both targets
   that can host it: one traced run of a walk charges what the untraced
   one does. *)
let test_sink_off_identical () =
  let tr = workload ~packets:2_000 () in
  let lpm () = Clara_nfs.Lpm.ported ~entries:8192 ~use_flow_cache:true () in
  List.iter
    (fun (what, lnic, prog) ->
      let r_off = Eng.run lnic (prog ()) tr in
      let sink = Trace.create () in
      let r_on = Eng.run lnic (prog ()) ~sink tr in
      (* [compare], not [=]: NaN hit rates must compare equal. *)
      check (what ^ ": summary byte-identical") true
        (compare r_off.Eng.summary r_on.Eng.summary = 0);
      check (what ^ ": emem hit rate identical") true
        (compare r_off.Eng.emem_hit_rate r_on.Eng.emem_hit_rate = 0);
      check (what ^ ": flow cache hit rate identical") true
        (compare r_off.Eng.flow_cache_hit_rate r_on.Eng.flow_cache_hit_rate = 0);
      check (what ^ ": events recorded") true (Trace.total sink > 0))
    [ ("nat@netronome", lnic, fun () -> nat ()); ("lpm@netronome", lnic, lpm);
      ("lpm@bluefield", L.Bluefield.default, lpm) ]

(* ------------------------------------------------------------------ *)
(* Tiling invariant: spans sum to latency, per packet                  *)

let test_tiling_invariant () =
  let tr = workload ~packets:2_000 ~rate:1_500_000. () in
  let sink = Trace.create () in
  let r = Eng.run lnic (nat ()) ~sink tr in
  let report = Attr.analyze sink in
  check_int "no ring truncation at this size" 0 report.Attr.incomplete;
  check_int "every retired packet attributed" r.Eng.summary.Stats.packets
    (Array.length report.Attr.packets);
  Array.iter
    (fun p ->
      check_int
        (Printf.sprintf "packet %d components tile latency" p.Attr.p_seq)
        (p.Attr.p_retire - p.Attr.p_arrival)
        (Attr.ctotal p.Attr.p_comp))
    report.Attr.packets;
  (* Row means carry the same invariant, and the "all" row's mean
     matches the engine's own summary. *)
  List.iter
    (fun row ->
      let sum =
        row.Attr.r_queue +. row.Attr.r_compute +. row.Attr.r_accel_wait
        +. row.Attr.r_mem +. row.Attr.r_wire
      in
      check (row.Attr.r_type ^ " row sums to total") true
        (Float.abs (sum -. row.Attr.r_total) < 1e-6))
    report.Attr.rows;
  let all = List.find (fun r -> r.Attr.r_type = "all") report.Attr.rows in
  check "all-row mean = engine mean" true
    (Float.abs (all.Attr.r_total -. r.Eng.summary.Stats.mean_cycles) < 0.5);
  check_int "all-row count = packets" r.Eng.summary.Stats.packets all.Attr.r_count

let test_ring_truncation_counted () =
  let tr = workload ~packets:2_000 () in
  let sink = Trace.create ~limit:5_000 () in
  ignore (Eng.run lnic (nat ()) ~sink tr);
  check "ring wrapped" true (Trace.dropped sink > 0);
  let report = Attr.analyze sink in
  (* Truncated heads are skipped, never misattributed; the surviving
     tail still analyzes cleanly. *)
  check "incomplete counted" true (report.Attr.incomplete > 0);
  Array.iter
    (fun p ->
      check_int "surviving packets still tile"
        (p.Attr.p_retire - p.Attr.p_arrival)
        (Attr.ctotal p.Attr.p_comp))
    report.Attr.packets

(* ------------------------------------------------------------------ *)
(* Two tenants: merged arrivals, per-program tagging, half-queue clamp *)

let test_pair_tracing () =
  let prog_a = nat () in
  let prog_b = Clara_nfs.Firewall.ported ~entries:8192 ~placement:Dev.P_imem () in
  let tr_a = workload ~packets:1_000 ~rate:400_000. () in
  let tr_b =
    W.Trace.synthesize ~seed:7L
      (W.Profile.make ~packets:1_000 ~rate_pps:400_000. ~flow_count:100
         ~payload:(W.Dist.Fixed 300) ())
  in
  let sink = Trace.create () in
  let rs = Eng.run_tenants lnic [| prog_a; prog_b |] ~sink [| tr_a; tr_b |] in
  let ra = rs.(0) and rb = rs.(1) in
  check "progs named" true
    (Trace.progs sink = [| prog_a.Dev.name; prog_b.Dev.name |]);
  let evs = Trace.events sink in
  let count p k =
    Array.fold_left
      (fun n e -> if e.Trace.prog = p && e.Trace.kind = k then n + 1 else n)
      0 evs
  in
  check_int "prog 0 arrivals tagged" 1_000 (count 0 Trace.Arrival);
  check_int "prog 1 arrivals tagged" 1_000 (count 1 Trace.Arrival);
  check_int "prog 0 retires" ra.Eng.summary.Stats.packets (count 0 Trace.Retire);
  check_int "prog 1 retires" rb.Eng.summary.Stats.packets (count 1 Trace.Retire);
  (* The engine consumes the two streams as one merged arrival-ordered
     stream: Arrival events must appear in nondecreasing time order. *)
  let arrivals = Array.to_list evs |> List.filter (fun e -> e.Trace.kind = Trace.Arrival) in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Trace.t0 <= b.Trace.t0 && sorted rest
    | _ -> true
  in
  check "merged arrival ordering" true (sorted arrivals);
  check "global seq unique across programs" true
    (let seen = Hashtbl.create 2048 in
     List.for_all
       (fun e ->
         if Hashtbl.mem seen e.Trace.seq then false
         else (Hashtbl.add seen e.Trace.seq (); true))
       arrivals);
  (* Attribution splits rows by program. *)
  let report = Attr.analyze sink in
  check "rows for both programs" true
    (List.exists (fun r -> r.Attr.r_prog = 0) report.Attr.rows
    && List.exists (fun r -> r.Attr.r_prog = 1) report.Attr.rows)

let test_pair_clamp_traced () =
  (* The half-queue clamp regression, now with a sink attached: a
     capacity-1 ingress hub must still clamp to >= 1 and the trace must
     show no Dropped events. *)
  let hubs =
    Array.map
      (fun (h : L.Hub.t) ->
        if h.L.Hub.kind = `Ingress then { h with L.Hub.queue_capacity = 1 } else h)
      lnic.L.Graph.hubs
  in
  let tiny = L.Graph.update lnic ~hubs in
  let mk arrival_ns =
    { W.Packet.src_ip = 1l; dst_ip = 2l; src_port = 1; dst_port = 2;
      proto = W.Packet.Udp; flags = 0; payload_bytes = 64; arrival_ns }
  in
  let noop name =
    { Dev.name; tables = []; handler = (fun ctx _ -> Dev.alu ctx 10; Dev.Emit) }
  in
  let sink = Trace.create () in
  let ra =
    (Eng.run_tenants ~threads:2 tiny [| noop "a"; noop "b" |] ~sink
       [| W.Trace.of_packets [| mk 0L; mk 10L |]; W.Trace.of_packets [||] |]).(0)
  in
  check_int "both packets accepted" 2 ra.Eng.summary.Stats.packets;
  check "no Dropped events in trace" true
    (Array.for_all (fun e -> e.Trace.kind <> Trace.Dropped) (Trace.events sink))

(* ------------------------------------------------------------------ *)
(* Perfetto export                                                     *)

let field name = function
  | J.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> Alcotest.fail ("missing field " ^ name))
  | _ -> Alcotest.fail "expected a JSON object"

let test_perfetto_export () =
  let tr = workload ~packets:300 () in
  let sink = Trace.create () in
  let r = Eng.run lnic (nat ()) ~sink tr in
  let j = Export.perfetto sink ~freq_mhz:r.Eng.freq_mhz in
  (* Round-trips through our own writer and parser (integral floats may
     come back as Ints, so compare shape, not structure). *)
  let j' = J.parse_exn (J.to_string j) in
  (match (field "traceEvents" j, field "traceEvents" j') with
  | J.List a, J.List b ->
      check "round-trip preserves event count" true
        (List.length a = List.length b)
  | _ -> Alcotest.fail "traceEvents shape after round-trip");
  (match field "traceEvents" j with
  | J.List evs ->
      check "events present" true (List.length evs > 0);
      List.iter
        (fun e ->
          match field "ph" e with
          | J.String ("X" | "i" | "M" | "C") -> ()
          | _ -> Alcotest.fail "unexpected phase")
        evs;
      (* Complete events must carry non-negative µs durations. *)
      List.iter
        (fun e ->
          match (field "ph" e, e) with
          | J.String "X", _ -> (
              match field "dur" e with
              | J.Float d -> check "dur >= 0" true (d >= 0.)
              | J.Int d -> check "dur >= 0" true (d >= 0)
              | _ -> Alcotest.fail "dur type")
          | _ -> ())
        evs
  | _ -> Alcotest.fail "traceEvents shape");
  match field "otherData" j with
  | J.Obj _ -> ()
  | _ -> Alcotest.fail "otherData shape"

(* ------------------------------------------------------------------ *)
(* Predictor-side attribution                                          *)

let profile =
  W.Profile.make ~payload:(W.Dist.Fixed 300) ~packets:1_000 ~flow_count:100
    ~rate_pps:60_000. ~tcp_fraction:0.8 ()

let predictor ?config ?(lnic = lnic) source =
  match Clara.analyze_for_profile lnic ~source ~profile with
  | Error e -> Alcotest.fail e
  | Ok a ->
      (Lat.create ?config lnic a.Clara.df a.Clara.mapping, W.Trace.synthesize ~seed:3L profile)

let nat_predictor () = predictor (Clara_nfs.Nat.source ())

let corpus_source name = (Option.get (Clara_nfs.Corpus.find name)).Clara_nfs.Corpus.source

let test_predict_attribution () =
  let t, tr = nat_predictor () in
  let p = Lat.predict_trace t tr in
  let att = Lat.attribute_trace t tr in
  check "attribution mean = prediction mean" true
    (att.Lat.att_mean = p.Lat.mean_cycles);
  check "has per-type rows and all row" true
    (List.exists (fun r -> r.Lat.at_type = "all") att.Lat.att_rows
    && List.length att.Lat.att_rows >= 2);
  List.iter
    (fun r ->
      let sum = r.Lat.at_compute +. r.Lat.at_mem +. r.Lat.at_accel +. r.Lat.at_wire in
      check (r.Lat.at_type ^ " components sum") true
        (Float.abs (sum -. r.Lat.at_total) < 1e-6))
    att.Lat.att_rows;
  let all = List.find (fun r -> r.Lat.at_type = "all") att.Lat.att_rows in
  check "all-row total = mean" true
    (Float.abs (all.Lat.at_total -. att.Lat.att_mean) < 1e-6)

let packets tr = Array.of_list (List.rev (W.Trace.fold (fun acc p -> p :: acc) [] tr))

(* Every corpus NF on bluefield, with the eSwitch flow cache tracked by
   its LRU (first packet of a flow misses) and pinned at a 0.5 hit
   ratio (every stateful eSwitch vcall blends in the miss price).  The
   miss path charges a software replay and touches the eSwitch LRU, so
   a walk that priced a node twice would drift from [packet_latency]. *)
let test_predict_packet_components () =
  let bf = L.Bluefield.default in
  let pinned h = { Lat.default_config with Lat.flow_cache_hit_ratio = Some h } in
  let miss_priced = ref 0 in
  List.iter
    (fun name ->
      let source = corpus_source name in
      (* Checks one mode and returns its predicted mean. *)
      let exact mode config =
        let label s = Printf.sprintf "%s/%s: %s" name mode s in
        let t, tr = predictor ~config ~lnic:bf source in
        let pkts = packets tr in
        Lat.reset_state t;
        let comps = Array.map (Lat.packet_components t) pkts in
        Lat.reset_state t;
        let lats = Array.map (Lat.packet_latency t) pkts in
        Array.iteri
          (fun i c ->
            if c.Lat.pc_total <> lats.(i).Lat.cycles then
              Alcotest.failf "%s packet %d: %h <> %h" (label "pc_total") i c.Lat.pc_total
                lats.(i).Lat.cycles;
            if
              Float.abs
                (c.Lat.pc_compute +. c.Lat.pc_mem +. c.Lat.pc_accel +. c.Lat.pc_wire
               -. c.Lat.pc_total)
              >= 1e-9
            then Alcotest.failf "%s packet %d" (label "components sum") i)
          comps;
        let p = Lat.predict_trace t tr in
        check (label "att_mean = mean_cycles") true
          ((Lat.attribute_trace t tr).Lat.att_mean = p.Lat.mean_cycles);
        p.Lat.mean_cycles
      in
      ignore (exact "lru" Lat.default_config);
      let half = exact "hit-0.5" (pinned 0.5) in
      let t, tr = predictor ~config:(pinned 1.) ~lnic:bf source in
      if half > (Lat.predict_trace t tr).Lat.mean_cycles then incr miss_priced)
    Clara_nfs.Corpus.names;
  check "some corpus NF reaches the eSwitch miss path" true (!miss_priced > 0)

(* Span durations of each packet, converted back to cycles, add up to
   that packet's [packet_latency]. *)
let check_timeline_sums ~label (t, tr) =
  let j = Lat.perfetto_timeline t tr in
  let freq =
    match field "freq_mhz" (field "otherData" j) with
    | J.Int f -> float_of_int f
    | _ -> Alcotest.fail "freq_mhz type"
  in
  let pkts = packets tr in
  let sums = Array.make (Array.length pkts) 0. in
  (match field "traceEvents" j with
  | J.List evs ->
      List.iter
        (fun e ->
          if field "ph" e = J.String "X" then
            match (field "seq" (field "args" e), field "dur" e) with
            | J.Int seq, J.Float dur -> sums.(seq) <- sums.(seq) +. (dur *. freq)
            | _ -> Alcotest.fail "span seq/dur type")
        evs
  | _ -> Alcotest.fail "traceEvents shape");
  Lat.reset_state t;
  Array.iteri
    (fun i pkt ->
      let cycles = (Lat.packet_latency t pkt).Lat.cycles in
      if Float.abs (sums.(i) -. cycles) > 1e-9 *. Float.abs cycles then
        Alcotest.failf "%s packet %d: spans %.6f cyc, packet_latency %.6f" label i sums.(i)
          cycles)
    pkts

let test_predict_timeline_json () =
  let t, tr = nat_predictor () in
  let j = Lat.perfetto_timeline t tr in
  let j' = J.parse_exn (J.to_string j) in
  (match (field "traceEvents" j, field "traceEvents" j') with
  | J.List evs, J.List evs' ->
      check "timeline has events" true (List.length evs > 0);
      check "timeline round-trips" true (List.length evs = List.length evs')
  | _ -> Alcotest.fail "traceEvents shape");
  check_timeline_sums ~label:"nat@netronome" (t, tr);
  (* Stateful, and its first packet per flow takes the eSwitch miss path. *)
  check_timeline_sums ~label:"load-balancer@bluefield"
    (predictor ~lnic:L.Bluefield.default (corpus_source "load-balancer"))

let suite =
  [ Alcotest.test_case "ring buffer semantics" `Quick test_ring_semantics;
    Alcotest.test_case "sink off = byte-identical results" `Quick test_sink_off_identical;
    Alcotest.test_case "tiling invariant (spans sum to latency)" `Quick
      test_tiling_invariant;
    Alcotest.test_case "ring truncation counted, never misattributed" `Quick
      test_ring_truncation_counted;
    Alcotest.test_case "two-tenant trace: merge order + tagging" `Quick
      test_pair_tracing;
    Alcotest.test_case "two-tenant half-queue clamp with sink" `Quick
      test_pair_clamp_traced;
    Alcotest.test_case "perfetto export parses" `Quick test_perfetto_export;
    Alcotest.test_case "predict attribution sums + matches mean" `Quick
      test_predict_attribution;
    Alcotest.test_case "predict per-packet components exact" `Quick
      test_predict_packet_components;
    Alcotest.test_case "predicted timeline JSON" `Quick test_predict_timeline_json ]
