(* Tests for the prediction stage: per-packet latency, symbolic paths,
   throughput, interference — and predicted-vs-actual validation against
   the simulator (the Figure 3 methodology). *)

module W = Clara_workload
module L = Clara_lnic
module D = Clara_dataflow
module Lat = Clara_predict.Latency
module Sym = Clara_predict.Symexec
module Tp = Clara_predict.Throughput
module Inter = Clara.Interference
module Eng = Clara_nicsim.Engine
module SStats = Clara_nicsim.Stats
module Dev = Clara_nicsim.Device
module C = Clara_dataflow.Cost
module Pr = Clara_predict.Pricer

let check = Alcotest.(check bool)
let lnic = L.Netronome.default

let profile ?(payload = W.Dist.Fixed 300) ?(packets = 5000) ?(tcp = 0.8) () =
  W.Profile.make ~payload ~packets ~flow_count:1000 ~tcp_fraction:tcp
    ~rate_pps:60_000. ()

let analyze ?options src prof =
  match Clara.analyze_for_profile ?options lnic ~source:src ~profile:prof with
  | Ok a -> a
  | Error e -> Alcotest.fail e

let test_prediction_positive_and_monotone () =
  let prof = profile () in
  let a = analyze (Clara_nfs.Nat.source ()) prof in
  let p300 = Clara.predict_profile a (profile ~payload:(W.Dist.Fixed 300) ()) in
  let p1200 = Clara.predict_profile a (profile ~payload:(W.Dist.Fixed 1200) ()) in
  check "positive" true (p300.Lat.mean_cycles > 0.);
  check "bigger packets cost more" true (p1200.Lat.mean_cycles > p300.Lat.mean_cycles)

let test_prediction_tcp_udp_differ () =
  (* §3.5 example: TCP and UDP incur different cycles (NAT drops others,
     TCP/UDP take the translation path; SYN packets update the table). *)
  let prof = profile ~tcp:0.5 () in
  let a = analyze (Clara_nfs.Firewall.source ()) prof in
  let p = Clara.predict_profile a prof in
  check "tcp and udp predictions distinct" true
    (Float.abs (p.Lat.tcp_mean -. p.Lat.udp_mean) > 1.);
  check "syn mean exists" true (not (Float.is_nan p.Lat.syn_mean))

let test_prediction_first_packet_miss () =
  (* A single-flow trace: first packet misses the table (update path),
     the rest hit.  Check via two-packet micro-trace. *)
  let prof = profile () in
  let a = analyze (Clara_nfs.Nat.source ()) prof in
  let pkt i =
    { W.Packet.src_ip = 1l; dst_ip = 2l; src_port = 10; dst_port = 80;
      proto = W.Packet.Tcp; flags = 0; payload_bytes = 300;
      arrival_ns = Int64.of_int (i * 1_000_000) }
  in
  let pred = Lat.create lnic a.Clara.df a.Clara.mapping in
  Lat.reset_state pred;
  let first = Lat.packet_latency pred (pkt 0) in
  let second = Lat.packet_latency pred (pkt 1) in
  check "first packet (miss+insert) costs more" true (first.Lat.cycles > second.Lat.cycles)

let test_symexec_nat_paths () =
  let prof = profile () in
  let a = analyze (Clara_nfs.Nat.source ()) prof in
  let paths = Sym.enumerate ~sizes:a.Clara.sizes lnic a.Clara.df a.Clara.mapping in
  check "several packet types" true (List.length paths >= 3);
  (* Sorted by decreasing cost. *)
  let costs = List.map (fun p -> p.Sym.cost_cycles) paths in
  check "sorted" true (costs = List.sort (fun a b -> compare b a) costs);
  (* Some path drops (non-TCP/UDP) and some emits. *)
  check "a drop path exists" true (List.exists (fun p -> not p.Sym.emits) paths);
  check "an emit path exists" true (List.exists (fun p -> p.Sym.emits) paths);
  (* Table-miss path costs more than the hit path (both emitting). *)
  let miss =
    List.find_opt
      (fun p ->
        p.Sym.emits
        && List.exists
             (fun d -> (not d.Sym.taken) && d.Sym.guard = Clara_cir.Ir.G_table_hit "flow_table")
             p.Sym.decisions)
      paths
  in
  let hit =
    List.find_opt
      (fun p ->
        p.Sym.emits
        && List.exists
             (fun d -> d.Sym.taken && d.Sym.guard = Clara_cir.Ir.G_table_hit "flow_table")
             p.Sym.decisions)
      paths
  in
  match (miss, hit) with
  | Some m, Some h -> check "miss path > hit path (§3.5)" true (m.Sym.cost_cycles > h.Sym.cost_cycles)
  | _ -> Alcotest.fail "expected both hit and miss paths"

let test_symexec_no_infeasible_protocols () =
  let prof = profile () in
  let a = analyze (Clara_nfs.Nat.source ()) prof in
  let paths = Sym.enumerate ~sizes:a.Clara.sizes lnic a.Clara.df a.Clara.mapping in
  List.iter
    (fun p ->
      let protos_true =
        List.filter
          (fun d -> d.Sym.taken && match d.Sym.guard with Clara_cir.Ir.G_proto _ -> true | _ -> false)
          p.Sym.decisions
      in
      check "at most one protocol per path" true (List.length protos_true <= 1))
    paths

let test_throughput_bottleneck () =
  let prof = profile () in
  (* Disallow the flow cache so the walk cost actually scales. *)
  let options =
    { Clara_mapping.Mapping.default_options with
      Clara_mapping.Mapping.disallowed_accels = [ L.Unit_.Lookup ] }
  in
  let a = analyze ~options (Clara_nfs.Lpm.source ~entries:30000) prof
  and a_small = analyze ~options (Clara_nfs.Lpm.source ~entries:1000) prof in
  let tp = Tp.estimate ~sizes:a.Clara.sizes ~prob:a.Clara.prob lnic a.Clara.df a.Clara.mapping in
  let tp_small =
    Tp.estimate ~sizes:a_small.Clara.sizes ~prob:a_small.Clara.prob lnic a_small.Clara.df
      a_small.Clara.mapping
  in
  check "finite" true (Float.is_finite tp.Tp.max_pps);
  check "positive" true (tp.Tp.max_pps > 0.);
  check "smaller table -> higher throughput" true (tp_small.Tp.max_pps > tp.Tp.max_pps);
  check "resources sorted" true
    (let pps = List.map (fun (r : Tp.bottleneck) -> r.Tp.max_pps) tp.Tp.resources in
     pps = List.sort compare pps)

let test_symexec_flow_weight_consistency () =
  (* Two independent expectations of the same random walk must agree:
     (a) Symexec enumerates full paths; weight each by the product of its
         guard probabilities and average the costs;
     (b) Graph.visits propagates the same probabilities through the
         DAG; the expected cost is the weight-cost dot product plus wire.
     They coincide when each guard is independent and appears once per
     path — true for the firewall (flag + table-hit guards only). *)
  let prof = profile () in
  let a = analyze (Clara_nfs.Firewall.source ()) prof in
  let prob = Clara.prob_of_profile prof in
  let sizes = Clara.sizes_of_profile prof in
  let paths = Sym.enumerate ~sizes lnic a.Clara.df a.Clara.mapping in
  let rec guard_p g =
    match g with
    | Clara_cir.Ir.G_not g' -> 1. -. guard_p g'
    | Clara_cir.Ir.G_or (x, y) -> Float.min 1. (guard_p x +. guard_p y)
    | g -> prob g
  in
  let path_p (p : Sym.path) =
    List.fold_left
      (fun acc (d : Sym.decision) ->
        let pg = guard_p d.Sym.guard in
        acc *. (if d.Sym.taken then pg else 1. -. pg))
      1. p.Sym.decisions
  in
  let total_p = List.fold_left (fun acc p -> acc +. path_p p) 0. paths in
  check "path probabilities sum to 1" true (Float.abs (total_p -. 1.) < 1e-9);
  let expected_via_paths =
    List.fold_left (fun acc p -> acc +. (path_p p *. p.Sym.cost_cycles)) 0. paths
  in
  (* (b): weights × costs + expected wire. *)
  let weights = D.Graph.visits a.Clara.df ~prob in
  let cir = a.Clara.df.D.Graph.cir in
  let sizes_resolved = Clara_mapping.Encode.with_entries cir sizes in
  let node_cost (n : Clara_dataflow.Node.t) =
    let unit_ =
      Clara_lnic.Graph.unit_ lnic a.Clara.mapping.Clara_mapping.Mapping.node_unit.(n.Clara_dataflow.Node.id)
    in
    let site =
      Clara_mapping.Encode.site lnic ~entries:sizes_resolved.C.state_entries
        ~state_region:(fun s ->
          match Clara_mapping.Mapping.placement_of_state a.Clara.mapping s with
          | Some (Clara_mapping.Mapping.In_memory m) -> m
          | _ -> (Clara_lnic.Netronome.emem lnic).Clara_lnic.Memory.id)
        ~state_footprint:(fun s ->
          match Clara_cir.Ir.state_obj_opt cir s with
          | Some o -> Clara_cir.Ir.state_bytes o
          | None -> 0)
        unit_
    in
    Option.value ~default:0. (C.cycles site sizes_resolved n)
  in
  let compute_expectation =
    Array.fold_left
      (fun acc (n : Clara_dataflow.Node.t) ->
        acc +. (weights.(n.Clara_dataflow.Node.id) *. node_cost n))
      0. a.Clara.df.D.Graph.nodes
  in
  (* Expected wire: every packet pays rx; emitting paths pay tx too. *)
  let pkt_bytes = sizes_resolved.Clara_dataflow.Cost.packet_bytes in
  let dummy payload =
    { W.Packet.src_ip = 0l; dst_ip = 0l; src_port = 0; dst_port = 0;
      proto = W.Packet.Tcp; flags = 0;
      payload_bytes = payload; arrival_ns = 0L }
  in
  let payload = int_of_float pkt_bytes - 54 in
  let wire emitted =
    Pr.rx_tx_cycles (Pr.wire lnic)
      ~bytes:(float_of_int (W.Packet.total_bytes (dummy payload))) ~emitted
  in
  let rx_tx = wire true in
  let rx_only = wire false in
  let p_emit = List.fold_left (fun acc p -> acc +. if p.Sym.emits then path_p p else 0.) 0. paths in
  let expected_via_weights =
    compute_expectation +. (p_emit *. rx_tx) +. ((1. -. p_emit) *. rx_only)
  in
  check "path expectation ~= flow-weight expectation" true
    (Float.abs (expected_via_paths -. expected_via_weights)
    /. expected_via_weights
    < 0.02)

let test_latency_at_rate () =
  let prof = profile () in
  let a = analyze (Clara_nfs.Nat.source ()) prof in
  let base = 4000. in
  let at rate =
    Tp.latency_at_rate ~sizes:a.Clara.sizes ~prob:a.Clara.prob ~base_cycles:base
      ~rate_pps:rate lnic a.Clara.df a.Clara.mapping
  in
  (match (at 10_000., at 1_000_000., at 1_900_000.) with
  | Some lo, Some mid, Some hi ->
      check "latency >= base" true (lo >= base);
      check "monotone in rate" true (lo <= mid && mid <= hi);
      check "knee visible" true (hi > 1.5 *. lo)
  | _ -> Alcotest.fail "stable rates must predict");
  check "unstable past capacity" true (at 5_000_000. = None)

(* Two equal-weight tenants on the same traffic profile: the paper's
   half-and-half slicing. *)
let analyze_two src_a src_b prof =
  match Inter.analyze_n lnic ~sources:[| src_a; src_b |] ~profiles:[| prof; prof |] with
  | Error e -> Alcotest.fail e
  | Ok rs -> (rs.(0), rs.(1))

let test_interference_slowdown () =
  let prof = profile ~packets:2000 () in
  let ra, rb = analyze_two (Clara_nfs.Nat.source ()) (Clara_nfs.Firewall.source ()) prof in
  check "A slowdown >= 1" true (ra.Inter.slowdown >= 0.99);
  check "B slowdown >= 1" true (rb.Inter.slowdown >= 0.99);
  check "contended >= sliced" true
    (ra.Inter.contended_cycles >= ra.Inter.sliced_cycles -. 1.
    && rb.Inter.contended_cycles >= rb.Inter.sliced_cycles -. 1.)

let test_interference_slice_utilization () =
  (* Regression: utilization was computed against the full NIC but the
     head-of-line inflation applied on the slice.  The reported
     utilization must now match an independent computation on the slice
     the NF actually runs on. *)
  let prof = profile ~packets:2000 () in
  let src = Clara_nfs.Nat.source () in
  let ra, _ = analyze_two src (Clara_nfs.Firewall.source ()) prof in
  check "nat drives the accelerators" true (ra.Inter.accel_utilization > 0.);
  check "below saturation at 60 kpps" false ra.Inter.saturated;
  let half = L.Graph.slice lnic ~keep_num:1 ~keep_den:2 in
  let cyc =
    match Clara.analyze_for_profile half ~source:src ~profile:prof with
    | Ok a -> Inter.accel_cycles_per_packet a
    | Error e -> Alcotest.fail e
  in
  let freq =
    float_of_int (List.hd (L.Graph.general_cores half)).L.Unit_.freq_mhz *. 1e6
  in
  let expected = prof.W.Profile.rate_pps *. cyc /. freq in
  check "utilization computed on the slice" true
    (abs_float (ra.Inter.accel_utilization -. expected) < 1e-9)

(* One pipeline: a tenant's solo number is exactly what
   [analyze_for_profile] + [predict] give on the same profile and the
   seed-17 trace Interference walks, for every corpus NF and target. *)
let test_interference_solo_is_pipeline () =
  let prof = profile ~packets:300 () in
  let trace = W.Trace.synthesize ~seed:17L prof in
  List.iter
    (fun target ->
      let nic = List.assoc target L.Targets.all in
      List.iter
        (fun (e : Clara_nfs.Corpus.entry) ->
          let source = e.Clara_nfs.Corpus.source in
          let what = e.Clara_nfs.Corpus.name ^ "@" ^ target in
          match
            ( Inter.analyze_n nic ~sources:[| source |] ~profiles:[| prof |],
              Clara.analyze_for_profile nic ~source ~profile:prof )
          with
          | Ok [| r |], Ok a ->
              let mean = (Clara.predict a trace).Lat.mean_cycles in
              if Int64.bits_of_float r.Inter.solo_cycles <> Int64.bits_of_float mean then
                Alcotest.failf "%s: solo %h, pipeline %h" what r.Inter.solo_cycles mean
          | Error err, _ | _, Error err -> Alcotest.failf "%s: %s" what err
          | Ok _, Ok _ -> Alcotest.failf "%s: expected one report" what)
        Clara_nfs.Corpus.all)
    [ "netronome"; "soc"; "bluefield" ]

(* A prediction leaves no major-heap block behind: on every corpus cell
   of the benchmarked targets, over a 1,000-packet trace of the
   benchmark's shape (bimodal payloads, Zipf flows over 4,000 flows, SYN
   on each flow's first packet), [Clara.predict], [Latency.create] and
   [attribute_trace] allocate only minor-heap blocks. *)
let test_prediction_major_heap () =
  let packets = 1000 in
  let prof =
    W.Profile.make ~tcp_fraction:0.8 ~flow_count:(4 * packets)
      ~payload:(W.Dist.Bimodal (64, 1200, 0.6))
      ~rate_pps:1e6 ~packets ~new_flow_syn:true ()
  in
  let trace = W.Trace.synthesize ~seed:1L prof in
  List.iter
    (fun target ->
      let nic = List.assoc target L.Targets.all in
      List.iter
        (fun (e : Clara_nfs.Corpus.entry) ->
          let what = e.Clara_nfs.Corpus.name ^ "@" ^ target in
          match Clara.analyze_for_profile nic ~source:e.Clara_nfs.Corpus.source ~profile:prof with
          | Error err -> Alcotest.failf "%s: %s" what err
          | Ok a ->
              let p = ref None in
              List.iter
                (fun (step, f) ->
                  let w = Fixtures.direct_major_words f in
                  if w <> 0. then Alcotest.failf "%s: %s allocates %.0f major words" what step w)
                [ ("Clara.predict", fun () -> ignore (Clara.predict a trace));
                  ("Latency.create",
                   fun () -> p := Some (Lat.create a.Clara.lnic a.Clara.df a.Clara.mapping));
                  ("attribute_trace", fun () -> ignore (Lat.attribute_trace (Option.get !p) trace)) ])
        Clara_nfs.Corpus.all)
    [ "netronome"; "soc"; "bluefield" ]

(* The price table keeps the walk from evaluating a node, or building
   a sizes record, per packet, and the walk builds no closure and sums
   into one accumulator: over the 36 corpus cells of the benchmarked
   targets and the benchmark's trace shape, [predict_trace] and
   [attribute_trace] each allocate at most 16 minor words per packet on
   average (the walk without the table allocates 156 and 200, and with
   its closures 61 and 34).  What is left is the boxed wire legs, the
   flow tables' growth and the samples' segments.  A trace of
   [Uniform (0, 1500)] payloads misses a sized node's table on nearly
   every packet; it may allocate at most 20 words per packet more than
   the benchmark's shape: one sizes record per packet (17 words more),
   not one per sized node that misses (34 more). *)
let test_walk_allocation () =
  let packets = 1000 in
  let prof payload =
    W.Profile.make ~tcp_fraction:0.8 ~flow_count:(4 * packets) ~payload ~rate_pps:1e6
      ~packets ~new_flow_syn:true ()
  in
  let bimodal = prof (W.Dist.Bimodal (64, 1200, 0.6)) in
  let trace = W.Trace.synthesize ~seed:1L bimodal in
  let many_sizes = W.Trace.synthesize ~seed:1L (prof (W.Dist.Uniform (0, 1500))) in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let cells = ref 0 in
  let pred = ref 0. and att = ref 0. and pred_many = ref 0. and att_many = ref 0. in
  List.iter
    (fun target ->
      let nic = List.assoc target L.Targets.all in
      List.iter
        (fun (e : Clara_nfs.Corpus.entry) ->
          match Clara.analyze_for_profile nic ~source:e.Clara_nfs.Corpus.source ~profile:bimodal with
          | Error err -> Alcotest.failf "%s@%s: %s" e.Clara_nfs.Corpus.name target err
          | Ok a ->
              let p = Lat.create a.Clara.lnic a.Clara.df a.Clara.mapping in
              incr cells;
              pred := !pred +. words (fun () -> ignore (Lat.predict_trace p trace));
              att := !att +. words (fun () -> ignore (Lat.attribute_trace p trace));
              pred_many := !pred_many +. words (fun () -> ignore (Lat.predict_trace p many_sizes));
              att_many := !att_many +. words (fun () -> ignore (Lat.attribute_trace p many_sizes)))
        Clara_nfs.Corpus.all)
    [ "netronome"; "soc"; "bluefield" ];
  Alcotest.(check int) "cells" 36 !cells;
  let per_packet w = w /. float_of_int (!cells * packets) in
  List.iter
    (fun (what, w, bound) ->
      check
        (Printf.sprintf "%s: %.1f minor words per packet, at most %.0f" what (per_packet w) bound)
        true
        (per_packet w <= bound))
    [ ("predict_trace", !pred, 16.); ("attribute_trace", !att, 16.);
      ("predict_trace, many sizes", !pred_many, per_packet !pred +. 20.);
      ("attribute_trace, many sizes", !att_many, per_packet !att +. 20.) ]

(* The attribution as the per-type [Hashtbl] fold it once was: each
   packet's [packet_components] summed under its type's label and under
   "all", the rows sorted by label with "all" last. *)
let reference_attribution p (trace : W.Trace.t) =
  Lat.reset_state p;
  let label (pkt : W.Packet.t) =
    match pkt.W.Packet.proto with
    | W.Packet.Tcp -> if W.Packet.is_syn pkt then "tcp-syn" else "tcp"
    | W.Packet.Udp -> "udp"
    | W.Packet.Other _ -> "other"
  in
  let sums = Hashtbl.create 8 and total = ref 0. in
  let add ty (c : Lat.pkt_components) =
    let cnt, co, me, ac, wi =
      match Hashtbl.find_opt sums ty with
      | Some v -> v
      | None ->
          let v = (ref 0, ref 0., ref 0., ref 0., ref 0.) in
          Hashtbl.add sums ty v;
          v
    in
    incr cnt;
    co := !co +. c.Lat.pc_compute;
    me := !me +. c.Lat.pc_mem;
    ac := !ac +. c.Lat.pc_accel;
    wi := !wi +. c.Lat.pc_wire
  in
  Array.iter
    (fun pkt ->
      let c = Lat.packet_components p pkt in
      total := !total +. c.Lat.pc_total;
      add (label pkt) c;
      add "all" c)
    trace.W.Trace.packets;
  let row ty (cnt, co, me, ac, wi) =
    let fn = float_of_int !cnt in
    let compute = !co /. fn and mem = !me /. fn and accel = !ac /. fn and wire = !wi /. fn in
    let dominant =
      fst
        (List.fold_left
           (fun (bn, bv) (nm, v) -> if v > bv then (nm, v) else (bn, bv))
           ("compute", compute)
           [ ("memory", mem); ("accel", accel); ("wire", wire) ])
    in
    { Lat.at_type = ty; at_count = !cnt; at_compute = compute; at_mem = mem; at_accel = accel;
      at_wire = wire; at_total = compute +. mem +. accel +. wire; at_dominant = dominant }
  in
  let rows =
    Hashtbl.fold (fun ty v acc -> row ty v :: acc) sums []
    |> List.sort (fun a b ->
           match (a.Lat.at_type = "all", b.Lat.at_type = "all") with
           | true, false -> 1
           | false, true -> -1
           | _ -> compare a.Lat.at_type b.Lat.at_type)
  in
  let n = Array.length trace.W.Trace.packets in
  { Lat.att_rows = rows; att_mean = (if n = 0 then 0. else !total /. float_of_int n) }

(* One predictor per corpus cell of the three benchmarked targets. *)
let corpus_predictors =
  lazy
    (List.concat_map
       (fun target ->
         let nic = List.assoc target L.Targets.all in
         List.filter_map
           (fun (e : Clara_nfs.Corpus.entry) ->
             match
               Clara.analyze_for_profile nic ~source:e.Clara_nfs.Corpus.source
                 ~profile:(profile ~packets:200 ())
             with
             | Error _ -> None
             | Ok a ->
                 Some (e.Clara_nfs.Corpus.name ^ "@" ^ target,
                       Lat.create a.Clara.lnic a.Clara.df a.Clara.mapping))
           Clara_nfs.Corpus.all)
       [ "netronome"; "soc"; "bluefield" ])

(* [attribute_trace] equals the reference fold on every corpus cell:
   the same rows in the same order, each field bit for bit, and a mean
   that is [predict_trace]'s, over random traces of TCP packets with and
   without SYN, UDP and other protocols, on a few flows (so table state
   matters), with payloads drawn from 0 to 1,500 B. *)
let prop_attribution_is_reference_fold =
  let packet =
    QCheck.Gen.(
      triple (oneofl [ `Syn; `Tcp; `Udp; `Other 1; `Other 47 ]) (int_range 0 7) (int_range 0 1500))
  in
  let print =
    QCheck.Print.list (fun (kind, flow, payload) ->
        Printf.sprintf "%s/f%d/%dB"
          (match kind with
          | `Syn -> "syn" | `Tcp -> "tcp" | `Udp -> "udp" | `Other k -> Printf.sprintf "proto%d" k)
          flow payload)
  in
  let trace specs =
    W.Trace.of_packets
      (Array.of_list
         (List.mapi
            (fun i (kind, flow, payload) ->
              let proto, flags =
                match kind with
                | `Syn -> (W.Packet.Tcp, 0x2)
                | `Tcp -> (W.Packet.Tcp, 0x10)
                | `Udp -> (W.Packet.Udp, 0)
                | `Other k -> (W.Packet.Other k, 0)
              in
              { W.Packet.src_ip = Int32.of_int (0x0a000000 + flow); dst_ip = 0x0a010001l;
                src_port = 1024 + flow; dst_port = 80; proto; flags; payload_bytes = payload;
                arrival_ns = Int64.of_int (i * 1000) })
            specs))
  in
  let bits x = Int64.bits_of_float x in
  let fields (r : Lat.att_row) =
    ( r.Lat.at_type, r.Lat.at_count, r.Lat.at_dominant,
      List.map bits [ r.Lat.at_compute; r.Lat.at_mem; r.Lat.at_accel; r.Lat.at_wire; r.Lat.at_total ] )
  in
  QCheck.Test.make ~name:"attribute_trace = the reference fold" ~count:20
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 0 300) packet))
    (fun specs ->
      let tr = trace specs in
      List.for_all
        (fun (what, p) ->
          let got = Lat.attribute_trace p tr in
          let want = reference_attribution p tr in
          let mean = (Lat.predict_trace p tr).Lat.mean_cycles in
          (List.map fields got.Lat.att_rows = List.map fields want.Lat.att_rows
           || QCheck.Test.fail_reportf "%s: rows differ from the reference fold" what)
          && (bits got.Lat.att_mean = bits want.Lat.att_mean
             || QCheck.Test.fail_reportf "%s: mean %h, reference %h" what got.Lat.att_mean
                  want.Lat.att_mean)
          && (bits got.Lat.att_mean = bits mean
             || QCheck.Test.fail_reportf "%s: mean %h, predict_trace %h" what got.Lat.att_mean mean))
        (Lazy.force corpus_predictors))

(* A hand-built mapping that puts a vcall on an accelerator that cannot
   run it is found at [Latency.create], before any packet: the typed
   error names the node, the vcall and the unit. *)
let test_unpriceable_mapping () =
  let a = analyze (Clara_nfs.Nat.source ()) (profile ()) in
  let df = a.Clara.df and m = a.Clara.mapping in
  let params = lnic.L.Graph.params in
  let node, v, unit_ =
    List.find_map
      (fun (n : D.Node.t) ->
        match n.D.Node.kind with
        | D.Node.N_vcall v ->
            Array.to_list lnic.L.Graph.units
            |> List.find_opt (fun (u : L.Unit_.t) ->
                   (not (L.Unit_.is_general u)) && C.term params u (Clara_cir.Ir.Vcall v) = None)
            |> Option.map (fun u -> (n, v, u))
        | D.Node.N_compute _ -> None)
      (Array.to_list df.D.Graph.nodes)
    |> Option.get
  in
  let bad =
    { m with
      Clara_mapping.Mapping.node_unit =
        Array.mapi (fun i u -> if i = node.D.Node.id then unit_.L.Unit_.id else u)
          m.Clara_mapping.Mapping.node_unit }
  in
  match Lat.create lnic df bad with
  | exception Lat.Unpriceable { node = id; op; unit_ = name } ->
      Alcotest.(check int) "node" node.D.Node.id id;
      Alcotest.(check string) "op" (L.Params.vcall_name v.Clara_cir.Ir.vc) op;
      Alcotest.(check string) "unit" unit_.L.Unit_.name name
  | _ -> Alcotest.fail "a vcall on a unit that cannot run it was priced"

(* [summarize] over segmented samples reads what a full sort reads:
   the trace-order mean and nearest-rank p50/p99, across segment
   boundaries, duplicates and ties. *)
let prop_summarize_equals_full_sort =
  let trace_of n = W.Trace.synthesize ~seed:9L (W.Profile.make ~packets:n ~flow_count:50 ()) in
  let traces = Hashtbl.create 8 in
  QCheck.Test.make ~name:"summarize equals a full sort" ~count:100
    QCheck.(
      make
        ~print:Print.(list float)
        Gen.(
          int_range 1 1100 >>= fun n ->
          list_repeat n (oneof [ map float_of_int (int_range 0 40); float_range 0. 5000. ])))
    (fun samples ->
      let a = Array.of_list samples in
      let n = Array.length a in
      let trace =
        match Hashtbl.find_opt traces n with
        | Some t -> t
        | None ->
            let t = trace_of n in
            Hashtbl.add traces n t;
            t
      in
      let i = ref 0 and cycles = [| 0. |] in
      let p =
        Lat.summarize trace cycles (fun _ ->
            cycles.(0) <- a.(!i);
            incr i;
            true)
      in
      let sorted = Array.copy a in
      Array.sort compare sorted;
      let rank q = sorted.(Clara_util.Order_stat.rank_index ~n q) in
      let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      same p.Lat.p50_cycles (rank 0.5)
      && same p.Lat.p99_cycles (rank 0.99)
      && same p.Lat.mean_cycles (Array.fold_left ( +. ) 0. a /. float_of_int n))

(* No corpus node loads packet bytes itself (they reach the packet
   through vcalls), so this NF adds the packet-region terms. *)
let packet_load_source =
  {|nf packet_load {
  state counter seen[1024] entry 8;
  handler process(pkt) {
    var hdr = parse_header(pkt);
    var b = payload_byte(pkt, 0) + payload_byte(pkt, 1);
    var n = count(seen, b);
    emit(pkt);
  }
}|}

(* Resolving once never captures a packet size, and it prices as the
   mapping ILP does.  Every corpus node is resolved once on the pricer's
   site of its mapped unit and of every placement-class representative
   of each target (the units [Encode] prices, accelerators included),
   and so is every node of [packet_load_source].  At random sizes
   (payloads of 0 to 1,500 B, packets at the payload plus a header or
   at the target's CTM threshold and one byte either side), evaluating
   that resolution into one reused price equals the price of a site
   holding only the packet region those sizes pick, resolved at them. *)
let resolved_corpus =
  lazy
    (let prof = profile ~packets:200 () in
     let resolutions what nic pricer (df : D.Graph.t) units =
       List.concat_map
         (fun (n : D.Node.t) ->
           List.map
             (fun (u : L.Unit_.t) ->
               ( Printf.sprintf "%s n%d on %s" what n.D.Node.id u.L.Unit_.name,
                 nic, pricer, u, n, Pr.resolve_on pricer u n ))
             (units n))
         (Array.to_list df.D.Graph.nodes)
     in
     List.concat_map
       (fun (target, nic) ->
         let reps =
           List.map (fun (c : L.Graph.placement_class) -> c.L.Graph.rep) (L.Graph.placement_classes nic)
         in
         List.concat_map
           (fun (name, source) ->
             let what = name ^ "@" ^ target in
             match Clara.analyze_for_profile nic ~source ~profile:prof with
             | Error _ -> []
             | Ok a ->
                 let pricer = Pr.create ~mapping:a.Clara.mapping nic a.Clara.df in
                 resolutions what nic pricer a.Clara.df (fun n -> Pr.mapped_unit pricer n :: reps))
           (("packet-load", packet_load_source)
           :: List.map
                (fun (e : Clara_nfs.Corpus.entry) -> (e.Clara_nfs.Corpus.name, e.Clara_nfs.Corpus.source))
                Clara_nfs.Corpus.all))
       L.Targets.all)

let prop_resolve_once_never_captures_sizes =
  let gen =
    QCheck.Gen.(
      quad (int_range 0 1500) (oneofl [ 42; 54; 66 ]) (oneofl [ None; Some (-1); Some 0; Some 1 ])
        (int_range 1 16))
  in
  let print (payload, header, ctm, trip) =
    Printf.sprintf "payload %d header %d packet %s opaque trip %d" payload header
      (match ctm with None -> "payload+header" | Some d -> Printf.sprintf "ctm%+d" d)
      trip
  in
  QCheck.Test.make ~name:"resolve once = ILP's site at every size" ~count:60
    (QCheck.make ~print gen) (fun (payload, header, ctm, trip) ->
      let scratch = { C.total = 0.; mem = 0.; accel = 0. } in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      List.for_all
        (fun (what, (nic : L.Graph.t), pricer, u, n, resolved) ->
          let packet =
            match ctm with
            | None -> payload + header
            | Some d -> nic.L.Graph.params.L.Params.packet_ctm_threshold + d
          in
          let sizes =
            Pr.sizes pricer
              { C.payload_bytes = float_of_int payload;
                packet_bytes = float_of_int packet;
                header_bytes = float_of_int header;
                state_entries = (fun _ -> 0.);
                opaque_trip = float_of_int trip }
          in
          let site = Pr.site pricer u in
          let region = C.packet_region site.C.packet_regions ~packet_bytes:sizes.C.packet_bytes in
          let picked =
            { site with
              C.packet_regions = { C.fits = region; spills = region; ctm_threshold = max_int } }
          in
          match (resolved, C.resolve picked n) with
          | None, None -> true
          | Some r, Some one ->
              C.evaluate r sizes scratch;
              let p = C.price one sizes in
              (same scratch.C.total p.C.total && same scratch.C.mem p.C.mem
               && same scratch.C.accel p.C.accel)
              || QCheck.Test.fail_reportf "%s: resolved %h/%h/%h, one region %h/%h/%h" what
                   scratch.C.total scratch.C.mem scratch.C.accel p.C.total p.C.mem p.C.accel
          | Some _, None -> QCheck.Test.fail_reportf "%s: resolved but not on one region" what
          | None, Some _ -> QCheck.Test.fail_reportf "%s: one region but no resolution" what)
        (Lazy.force resolved_corpus))

let test_interference_saturation_flag () =
  (* Regression: aggregate utilization >= 1 was silently capped at 0.9;
     it must now surface as [saturated] while the prediction stays
     finite. *)
  let prof_at rate =
    W.Profile.make ~payload:(W.Dist.Fixed 300) ~packets:500 ~flow_count:1000
      ~tcp_fraction:0.8 ~rate_pps:rate ()
  in
  let run rate =
    fst (analyze_two (Clara_nfs.Nat.source ()) (Clara_nfs.Nat.source ()) (prof_at rate))
  in
  let calm = run 1_000. in
  check "low rate not saturated" false calm.Inter.saturated;
  let hot = run 1e9 in
  check "absurd rate saturated" true hot.Inter.saturated;
  check "contended stays finite under saturation" true
    (Float.is_finite hot.Inter.contended_cycles);
  check "saturated still inflates" true
    (hot.Inter.contended_cycles >= hot.Inter.sliced_cycles -. 1.)

let one_thread_nic () =
  let g = L.Netronome.create ~islands:1 ~npus_per_island:1 () in
  let units =
    Array.map
      (fun (u : L.Unit_.t) ->
        match u.L.Unit_.kind with
        | L.Unit_.General_core { has_fpu; _ } ->
            { u with L.Unit_.kind = L.Unit_.General_core { threads = 1; has_fpu } }
        | _ -> u)
      g.L.Graph.units
  in
  L.Graph.update g ~units

let test_accel_class_filter () =
  (* Regression: any bottleneck row with parallelism = 1 (other than
     wire-dma) was classified as accelerator time.  A single-threaded
     general core also has parallelism = 1; its compute must not count
     as accelerator contention. *)
  let nic = one_thread_nic () in
  Alcotest.(check int) "nic really has one thread" 1 (L.Graph.total_threads nic);
  let prof = profile ~packets:500 () in
  let no_accels =
    { Clara_mapping.Mapping.default_options with
      Clara_mapping.Mapping.disallowed_accels =
        [ L.Unit_.Parse; L.Unit_.Checksum; L.Unit_.Lookup; L.Unit_.Crypto ] }
  in
  match Clara.analyze_for_profile ~options:no_accels nic ~source:Clara_nfs.Dpi.source ~profile:prof with
  | Error e -> Alcotest.fail e
  | Ok a ->
      check "single general thread is not accelerator time" true
        (Inter.accel_cycles_per_packet a = 0.)

let test_analyze_n_three () =
  let prof = profile ~packets:1000 () in
  let sources =
    [| Clara_nfs.Nat.source (); Clara_nfs.Firewall.source (); Clara_nfs.Dpi.source |]
  in
  match
    Inter.analyze_n lnic ~weights:[| 2; 1; 1 |] ~sources
      ~profiles:(Array.make 3 prof)
  with
  | Error e -> Alcotest.fail e
  | Ok rs ->
      Alcotest.(check int) "three reports" 3 (Array.length rs);
      Array.iteri
        (fun i r ->
          check (Printf.sprintf "tenant %d slowdown >= 1" i) true
            (r.Inter.slowdown >= 0.99);
          check (Printf.sprintf "tenant %d contended >= sliced" i) true
            (r.Inter.contended_cycles >= r.Inter.sliced_cycles -. 1.))
        rs

(* A node's price table gives what [Cost.evaluate] gives at the key's
   sizes, bit for bit.  Every resolution of [resolved_corpus] (each
   corpus node and each node of [packet_load_source], on its mapped
   unit and every placement-class representative of every target) gets
   a fresh table and a run of 24 size keys, twice over: payloads of 0 to
   1,500 B with every header size, and packets at the target's CTM
   threshold and one byte either side.  A run of more than 16 distinct
   keys overfills the table's 8 sets of 2 ways, so keys share sets and
   evict each other, and the second pass reads back both surviving and
   evicted keys. *)
let prop_table_price_is_evaluate =
  let header = QCheck.Gen.oneofl [ 34; 42; 54 ] in
  let size =
    QCheck.Gen.(
      frequency
        [ (3, map2 (fun p h -> `Payload (p, h)) (int_range 0 1500) header);
          (1, map2 (fun d h -> `Ctm (d, h)) (int_range (-1) 1) header) ])
  in
  let print =
    QCheck.Print.list (function
      | `Payload (p, h) -> Printf.sprintf "%d+%d" p h
      | `Ctm (d, h) -> Printf.sprintf "ctm%+d/%d" d h)
  in
  QCheck.Test.make ~name:"price table = Cost.evaluate at every size" ~count:10
    (QCheck.make ~print (QCheck.Gen.list_repeat 24 size))
    (fun run ->
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let key (nic : L.Graph.t) = function
        | `Payload (p, h) -> (p lsl 16) lor h
        | `Ctm (d, h) -> ((nic.L.Graph.params.L.Params.packet_ctm_threshold + d - h) lsl 16) lor h
      in
      let distinct nic = List.length (List.sort_uniq compare (List.map (key nic) run)) in
      QCheck.assume (distinct L.Netronome.default > 16);
      let got = { C.total = 0.; mem = 0.; accel = 0. } in
      let want = { C.total = 0.; mem = 0.; accel = 0. } in
      List.for_all
        (fun (what, (nic : L.Graph.t), pricer, _, _, resolved) ->
          match resolved with
          | None -> true
          | Some r ->
              let tbl = Pr.table r and memo = Pr.sizes_memo pricer in
              List.for_all
                (fun s ->
                  let k = key nic s in
                  Pr.table_price pricer memo tbl k got;
                  C.evaluate r (Pr.sizes_of_key pricer k) want;
                  (same got.C.total want.C.total && same got.C.mem want.C.mem
                   && same got.C.accel want.C.accel)
                  || QCheck.Test.fail_reportf "%s at key %d+%d: table %h/%h/%h, evaluate %h/%h/%h"
                       what (k asr 16) (k land 0xffff) got.C.total got.C.mem got.C.accel
                       want.C.total want.C.mem want.C.accel)
                (run @ run))
        (Lazy.force resolved_corpus))

(* ------------------------------------------------------------------ *)
(* Predicted vs actual (the Figure 3 methodology, spot checks)         *)

let predicted_vs_actual src prog prof ?placement_of ?options () =
  let a = analyze ?options src prof in
  let prog =
    match placement_of with
    | None -> prog
    | Some f -> f a
  in
  let trace = W.Trace.synthesize ~seed:21L prof in
  let pred = (Clara.predict a trace).Lat.mean_cycles in
  let act = (Eng.run lnic prog trace).Eng.summary.SStats.mean_cycles in
  (pred, act)

let err p a = Float.abs (p -. a) /. a

let test_accuracy_nat () =
  let prof = profile ~packets:4000 () in
  let pred, act =
    predicted_vs_actual (Clara_nfs.Nat.source ())
      (Clara_nfs.Nat.ported ~checksum_engine:true ())
      prof ()
  in
  check "NAT within 20%" true (err pred act < 0.20)

let test_accuracy_vnf () =
  let prof = profile ~packets:4000 ~payload:(W.Dist.Fixed 600) () in
  let pred, act =
    predicted_vs_actual (Clara_nfs.Vnf_chain.source ()) (Clara_nfs.Vnf_chain.ported ()) prof ()
  in
  check "VNF within 10%" true (err pred act < 0.10)

let test_accuracy_lpm () =
  let prof = profile ~packets:4000 () in
  let options =
    { Clara_mapping.Mapping.default_options with
      Clara_mapping.Mapping.disallowed_accels = [ L.Unit_.Lookup ] }
  in
  let pred, act =
    predicted_vs_actual (Clara_nfs.Lpm.source ~entries:10000)
      (Clara_nfs.Lpm.ported ~entries:10000 ~use_flow_cache:false ())
      prof ~options
      ~placement_of:(fun a ->
        let placement =
          Option.value ~default:Dev.P_emem (Clara.device_placement_of_state a "routes")
        in
        Clara_nfs.Lpm.ported ~entries:10000 ~use_flow_cache:false ~placement ())
      ()
  in
  check "LPM within 15%" true (err pred act < 0.15)

let test_accuracy_monotone_in_entries () =
  (* The Figure 3a shape: predictions grow with table entries. *)
  let prof = profile ~packets:1000 () in
  let options =
    { Clara_mapping.Mapping.default_options with
      Clara_mapping.Mapping.disallowed_accels = [ L.Unit_.Lookup ] }
  in
  let pred entries =
    let a = analyze ~options (Clara_nfs.Lpm.source ~entries) prof in
    (Clara.predict_profile a prof).Lat.mean_cycles
  in
  let p5 = pred 5000 and p15 = pred 15000 and p30 = pred 30000 in
  check "5k < 15k" true (p5 < p15);
  check "15k < 30k" true (p15 < p30);
  (* Roughly linear: the 30k/5k ratio should be in the vicinity of 6. *)
  check "roughly linear" true (p30 /. p5 > 3. && p30 /. p5 < 12.)

let test_throughput_wire_cost_convention () =
  (* Regression: the wire-dma resource used [Float.max 1. cycles],
     silently rounding sub-cycle DMA costs up to a full cycle and
     treating a zero cost as one cycle instead of "no bound" — unlike
     every compute resource.  Both paths now share one convention. *)
  let prof = profile () in
  let a = analyze (Clara_nfs.Nat.source ()) prof in
  let base = lnic.L.Graph.params in
  let with_wire c =
    L.Graph.update lnic
      ~params:
        { base with L.Params.wire_ingress = L.Cost_fn.const c;
          L.Params.wire_egress = L.Cost_fn.const c }
  in
  let wire_of t =
    List.find (fun (r : Tp.bottleneck) -> r.Tp.resource = "wire-dma") t.Tp.resources
  in
  let freq =
    match L.Graph.general_cores lnic with
    | u :: _ -> float_of_int u.L.Unit_.freq_mhz *. 1e6
    | [] -> 1e9
  in
  (* 0.125 cycles each way = 0.25 cycles/packet over 8 lanes: pre-fix
     this clamped to 1 cycle (max 8*freq pps); honored, it is 32*freq. *)
  let estimate nic = Tp.estimate ~sizes:a.Clara.sizes ~prob:a.Clara.prob nic a.Clara.df a.Clara.mapping in
  let sub = wire_of (estimate (with_wire 0.125)) in
  check "sub-cycle wire cost honored" true (sub.Tp.max_pps > 12. *. freq);
  (* Zero cost means the wire imposes no throughput bound at all. *)
  let free = wire_of (estimate (with_wire 0.)) in
  check "zero wire cost is unbounded" true (free.Tp.max_pps = Float.infinity);
  let t0 = estimate (with_wire 0.) in
  check "free wire is never the bottleneck" true
    (t0.Tp.bottleneck.Tp.resource <> "wire-dma")

(* A [return] inside a loop body ends the packet.  The walk used to
   resume at the loop's exit after it, so TCP packets of
   [Fixtures.early_exit_source] were predicted at the full emit path
   (3762 cyc on netronome) while their symbolic path said 1792 cyc,
   dropped. *)
let test_return_in_loop_ends_packet () =
  let prof = profile ~tcp:1.0 () in
  let a = analyze Fixtures.early_exit_source prof in
  let paths = Sym.enumerate ~sizes:a.Clara.sizes lnic a.Clara.df a.Clara.mapping in
  let tcp = List.find (fun p -> p.Sym.description = "tcp") paths in
  check "tcp path drops" false tcp.Sym.emits;
  Alcotest.(check (float 0.)) "tcp path cost" 1792. tcp.Sym.cost_cycles;
  let p = Clara.predict_profile a prof in
  Alcotest.(check (float 0.)) "every packet is the tcp path" tcp.Sym.cost_cycles
    p.Lat.p99_cycles;
  Alcotest.(check (float 0.)) "tcp mean" tcp.Sym.cost_cycles p.Lat.tcp_mean;
  Alcotest.(check (float 0.)) "no packet emitted" 0. p.Lat.emitted_fraction

(* Every TCP packet of [Fixtures.early_exit_source] drops inside the
   loop, so at TCP 1.0 no packet leaves: the DMA path carries the
   receive leg only, in cycles and in energy. *)
let test_dropped_pay_no_tx () =
  let a = analyze Fixtures.early_exit_source (profile ~tcp:1.0 ()) in
  let sizes = a.Clara.sizes and prob = a.Clara.prob in
  let bytes = sizes.D.Cost.packet_bytes in
  let tp = Tp.estimate ~sizes ~prob lnic a.Clara.df a.Clara.mapping in
  let wire = List.find (fun (r : Tp.bottleneck) -> r.Tp.resource = "wire-dma") tp.Tp.resources in
  Alcotest.(check (float 0.)) "wire-dma cycles are the rx leg"
    (L.Cost_fn.eval lnic.L.Graph.params.L.Params.wire_ingress bytes)
    wire.Tp.cycles_per_packet;
  let e =
    Clara_predict.Energy.estimate ~sizes ~prob ~rate_pps:60_000. lnic a.Clara.df
      a.Clara.mapping
  in
  Alcotest.(check (float 0.)) "wire-dma energy moves the packet in only"
    ((Clara_predict.Energy.default_powers lnic).Clara_predict.Energy.dma_w_per_gbps
     *. 8. *. bytes)
    (List.assoc "wire-dma" e.Clara_predict.Energy.breakdown)

let suite =
  [ Alcotest.test_case "prediction positive & size-monotone" `Quick
      test_prediction_positive_and_monotone;
    Alcotest.test_case "per-proto predictions differ (§3.5)" `Quick
      test_prediction_tcp_udp_differ;
    Alcotest.test_case "first packet of flow costs more" `Quick
      test_prediction_first_packet_miss;
    Alcotest.test_case "symexec NAT paths" `Quick test_symexec_nat_paths;
    Alcotest.test_case "symexec feasibility" `Quick test_symexec_no_infeasible_protocols;
    Alcotest.test_case "throughput bottleneck" `Quick test_throughput_bottleneck;
    Alcotest.test_case "latency at rate (M/M/k)" `Quick test_latency_at_rate;
    Alcotest.test_case "symexec = flow-weight expectation" `Quick
      test_symexec_flow_weight_consistency;
    Alcotest.test_case "interference slowdown" `Quick test_interference_slowdown;
    Alcotest.test_case "interference slice utilization" `Quick
      test_interference_slice_utilization;
    Alcotest.test_case "prediction leaves no major-heap block" `Quick
      test_prediction_major_heap;
    Alcotest.test_case "an unpriceable mapped node is a typed error" `Quick
      test_unpriceable_mapping;
    Alcotest.test_case "the price table cuts the walk's allocation" `Quick
      test_walk_allocation;
    Alcotest.test_case "interference saturation flag" `Quick
      test_interference_saturation_flag;
    Alcotest.test_case "interference solo is the one pipeline" `Quick
      test_interference_solo_is_pipeline;
    Alcotest.test_case "accelerator class filter" `Quick test_accel_class_filter;
    Alcotest.test_case "analyze_n three tenants" `Quick test_analyze_n_three;
    Alcotest.test_case "accuracy: NAT" `Quick test_accuracy_nat;
    Alcotest.test_case "accuracy: VNF" `Quick test_accuracy_vnf;
    Alcotest.test_case "accuracy: LPM" `Quick test_accuracy_lpm;
    Alcotest.test_case "Fig 3a shape: linear in entries" `Quick
      test_accuracy_monotone_in_entries;
    Alcotest.test_case "throughput wire-cost convention" `Quick
      test_throughput_wire_cost_convention;
    Alcotest.test_case "return inside a loop ends the packet" `Quick
      test_return_in_loop_ends_packet;
    Alcotest.test_case "dropped packets pay no tx leg" `Quick test_dropped_pay_no_tx ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_resolve_once_never_captures_sizes; prop_table_price_is_evaluate;
        prop_summarize_equals_full_sort; prop_attribution_is_reference_fold ]
