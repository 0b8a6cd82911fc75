(* Tests for the additional targets (pipeline ASIC, x86 host) and the
   service-chain combinator. *)

module W = Clara_workload
module L = Clara_lnic
module Lat = Clara_predict.Latency

let check = Alcotest.(check bool)

let profile = W.Profile.make ~packets:2_000 ~flow_count:500 ()

let test_asic_valid () =
  let g = L.Asic_nic.default in
  check "valid" true (L.Validate.is_valid g);
  (* Strict pipeline: stages are strictly ordered. *)
  let stages =
    L.Graph.general_cores g |> List.map (fun u -> u.L.Unit_.stage) |> List.sort_uniq compare
  in
  check "four distinct stages" true (List.length stages = 4)

let test_asic_feasibility_answers () =
  let asic = L.Asic_nic.default in
  let feasible src =
    match Clara.analyze_for_profile asic ~source:src ~profile with
    | Ok _ -> true
    | Error _ -> false
  in
  (* Header-level NFs map; payload/crypto NFs do not (§2.1 ASIC
     capability gap — the useful "don't port this" answer). *)
  check "lpm maps" true (feasible (Clara_nfs.Lpm.source ~entries:30_000));
  check "nat maps" true (feasible (Clara_nfs.Nat.source ()));
  check "firewall maps" true (feasible (Clara_nfs.Firewall.source ()));
  check "dpi infeasible" false (feasible Clara_nfs.Dpi.source);
  check "ipsec infeasible" false (feasible (Clara_nfs.Ipsec_gw.source ()))

let test_asic_beats_npu_on_lpm () =
  (* The TCAM pipeline crushes the NPU software path on table workloads. *)
  let wall target src =
    match Clara.analyze_for_profile target ~source:src ~profile with
    | Ok a ->
        let p = Clara.predict_profile a profile in
        let freq =
          match L.Graph.general_cores target with
          | u :: _ -> float_of_int u.L.Unit_.freq_mhz
          | [] -> 1.
        in
        p.Lat.mean_cycles /. freq
    | Error e -> Alcotest.fail e
  in
  let src = Clara_nfs.Lpm.source ~entries:30_000 in
  check "asic faster than netronome on LPM" true
    (wall L.Asic_nic.default src < wall L.Netronome.default src)

(* ------------------------------------------------------------------ *)
(* Off-path DPU (bluefield)                                            *)

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_targets_registry () =
  (* bluefield resolves and the registry's arch tags tell the families
     apart. *)
  (match L.Targets.of_name "bluefield" with
  | Ok g -> check "bluefield off-path" true (g.L.Graph.arch = L.Graph.Off_path)
  | Error e -> Alcotest.fail e);
  check "netronome on-path" true
    (L.Targets.arch_of "netronome" = Some L.Graph.On_path);
  check "host tagged host-only" true
    (L.Targets.arch_of "host" = Some L.Graph.Host_only);
  (* Misspellings within edit distance 2 earn a did-you-mean hint while
     the error still lists every valid name. *)
  (match L.Targets.of_name "bluefeld" with
  | Ok _ -> Alcotest.fail "misspelling resolved"
  | Error e ->
      check "hint names bluefield" true (contains e "did you mean \"bluefield\"");
      check "all names still listed" true
        (contains e "netronome" && contains e "soc" && contains e "asic"
        && contains e "host"));
  (* A distant name gets the plain error, no guessing. *)
  match L.Targets.of_name "pensando" with
  | Ok _ -> Alcotest.fail "unknown name resolved"
  | Error e -> check "no hint for distant name" false (contains e "did you mean")

let test_offpath_two_regimes () =
  (* Pinned hit ratio selects the regime: all-hit stays on the eSwitch
     price; all-miss pays the upcall plus a software replay per stateful
     node, so the gap must cover at least the upcall itself. *)
  let bf = L.Bluefield.default in
  let src = Clara_nfs.Lpm.source ~entries:8_192 in
  match Clara.analyze_for_profile bf ~source:src ~profile with
  | Error e -> Alcotest.fail e
  | Ok a ->
      let trace = W.Trace.synthesize ~seed:31L profile in
      let at h =
        let config =
          { Lat.default_config with Lat.flow_cache_hit_ratio = Some h }
        in
        (Clara.predict ~config a trace).Lat.mean_cycles
      in
      let hit = at 1.0 and miss = at 0.0 in
      check "all-hit cheaper than all-miss" true (hit < miss);
      check "gap covers the upcall" true
        (miss -. hit >= float_of_int (L.Graph.upcall_cycles bf));
      (* Default config (no pin): the LRU lands between the regimes. *)
      let lru = (Clara.predict a trace).Lat.mean_cycles in
      check "LRU between regimes" true (hit <= lru && lru <= miss)

let test_cross_arch_verdicts () =
  (* The §2 selection question: lookup-heavy work wins on the eSwitch
     fast path, payload-heavy work on the on-path NPU complex — the two
     architectures must disagree for the sweep to be worth running. *)
  (* Enough packets that cold flow-cache misses amortize: the verdict
     should reflect steady state, not the warm-up transient. *)
  let steady = W.Profile.make ~packets:10_000 ~flow_count:500 () in
  let wall target src =
    match Clara.analyze_for_profile target ~source:src ~profile:steady with
    | Ok a ->
        let p = Clara.predict_profile a steady in
        let freq =
          match L.Graph.general_cores target with
          | u :: _ -> float_of_int u.L.Unit_.freq_mhz
          | [] -> 1.
        in
        p.Lat.mean_cycles /. freq
    | Error e -> Alcotest.fail e
  in
  let lpm = Clara_nfs.Lpm.source ~entries:8_192 in
  let dpi = Clara_nfs.Dpi.source in
  check "bluefield wins lookup-heavy lpm" true
    (wall L.Bluefield.default lpm < wall L.Netronome.default lpm);
  check "netronome wins payload-heavy dpi" true
    (wall L.Netronome.default dpi < wall L.Bluefield.default dpi)

(* ------------------------------------------------------------------ *)
(* Chains                                                              *)

let lnic = L.Netronome.default

let chain_sources =
  [ Clara_nfs.Firewall.source (); Clara_nfs.Nat.source () ]

let test_chain_analyze () =
  match Clara.Chain.analyze lnic ~sources:chain_sources ~profile with
  | Error e -> Alcotest.fail e
  | Ok c ->
      check "two stages" true (List.length c.Clara.Chain.stages = 2);
      check "stage names" true (Clara.Chain.stage_names c = [ "firewall"; "nat" ])

let test_chain_errors () =
  (match Clara.Chain.analyze lnic ~sources:[] ~profile with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty chain accepted");
  match
    Clara.Chain.analyze lnic
      ~sources:[ Clara_nfs.Nat.source (); "nf broken {" ]
      ~profile
  with
  | Error e ->
      check "error names the stage" true
        (String.length e > 7 && String.sub e 0 7 = "stage 1")
  | Ok _ -> Alcotest.fail "broken stage accepted"

let test_chain_latency_composition () =
  (* Chain latency exceeds each single stage (with wire) but is below the
     naive sum of standalone predictions (wire charged once, not twice). *)
  let trace = W.Trace.synthesize ~seed:23L profile in
  let standalone src =
    match Clara.analyze_for_profile lnic ~source:src ~profile with
    | Ok a -> (Clara.predict a trace).Lat.mean_cycles
    | Error e -> Alcotest.fail e
  in
  let fw = standalone (List.nth chain_sources 0) in
  let nat = standalone (List.nth chain_sources 1) in
  match Clara.Chain.analyze lnic ~sources:chain_sources ~profile with
  | Error e -> Alcotest.fail e
  | Ok c ->
      let p = Clara.Chain.predict c trace in
      (* Packets the firewall drops never reach NAT, so the chain mean can
         undercut NAT's standalone mean; it can never undercut the first
         stage (survivors only gain work downstream). *)
      check "chain >= first stage" true (p.Lat.mean_cycles >= fw -. 1.);
      check "chain < sum of standalones" true (p.Lat.mean_cycles < fw +. nat)

let test_chain_drop_short_circuits () =
  (* A chain headed by a drop-everything NF costs at most slightly more
     than that NF alone: later stages never execute. *)
  let drop_all =
    "nf drop_all { handler h(p) { var hdr = parse_header(p); drop(p); } }"
  in
  let trace = W.Trace.synthesize ~seed:23L profile in
  let alone =
    match Clara.analyze_for_profile lnic ~source:drop_all ~profile with
    | Ok a -> (Clara.predict a trace).Lat.mean_cycles
    | Error e -> Alcotest.fail e
  in
  match
    Clara.Chain.analyze lnic ~sources:[ drop_all; Clara_nfs.Vnf_chain.source () ] ~profile
  with
  | Error e -> Alcotest.fail e
  | Ok c ->
      let p = Clara.Chain.predict c trace in
      check "everything dropped" true (p.Lat.emitted_fraction = 0.);
      check "tail stage skipped" true (p.Lat.mean_cycles < alone +. 10.)

let test_chain_on_asic () =
  (* A pure header chain runs on the pipeline ASIC too. *)
  match
    Clara.Chain.analyze L.Asic_nic.default
      ~sources:[ Clara_nfs.Firewall.source (); Clara_nfs.Lpm.source ~entries:1000 ]
      ~profile
  with
  | Error e -> Alcotest.fail e
  | Ok c ->
      let p = Clara.Chain.predict c (W.Trace.synthesize ~seed:3L profile) in
      check "asic chain predicts" true (p.Lat.mean_cycles > 0.)

let test_chain_one_stage_is_predict () =
  (* A one-stage chain charges the wire once and no fabric hop, so it is
     the standalone prediction: both go through Latency.summarize.  Bit
     for bit, with NaN class means compared as NaN. *)
  let same a b =
    (Float.is_nan a && Float.is_nan b)
    || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  in
  let trace = W.Trace.synthesize ~seed:23L profile in
  List.iter
    (fun (nic_name, nic) ->
      List.iter
        (fun (e : Clara_nfs.Corpus.entry) ->
          let what field = Printf.sprintf "%s@%s %s" e.Clara_nfs.Corpus.name nic_name field in
          match Clara.Chain.analyze nic ~sources:[ e.Clara_nfs.Corpus.source ] ~profile with
          | Error err -> Alcotest.fail (what err)
          | Ok c ->
              let p = Clara.Chain.predict c trace in
              let q = Clara.predict (List.hd c.Clara.Chain.stages) trace in
              List.iter
                (fun (field, a, b) -> check (what field) true (same a b))
                [ ("mean", p.Lat.mean_cycles, q.Lat.mean_cycles);
                  ("p50", p.Lat.p50_cycles, q.Lat.p50_cycles);
                  ("p99", p.Lat.p99_cycles, q.Lat.p99_cycles);
                  ("tcp", p.Lat.tcp_mean, q.Lat.tcp_mean);
                  ("udp", p.Lat.udp_mean, q.Lat.udp_mean);
                  ("syn", p.Lat.syn_mean, q.Lat.syn_mean);
                  ("emitted", p.Lat.emitted_fraction, q.Lat.emitted_fraction) ])
        Clara_nfs.Corpus.all)
    [ ("netronome", lnic); ("bluefield", L.Bluefield.default) ]

let suite =
  [ Alcotest.test_case "asic graph valid" `Quick test_asic_valid;
    Alcotest.test_case "asic feasibility answers" `Quick test_asic_feasibility_answers;
    Alcotest.test_case "asic wins on table workloads" `Quick test_asic_beats_npu_on_lpm;
    Alcotest.test_case "targets registry & did-you-mean" `Quick test_targets_registry;
    Alcotest.test_case "off-path two-regime latency" `Quick test_offpath_two_regimes;
    Alcotest.test_case "cross-architecture verdicts" `Quick test_cross_arch_verdicts;
    Alcotest.test_case "chain analyze" `Quick test_chain_analyze;
    Alcotest.test_case "chain error reporting" `Quick test_chain_errors;
    Alcotest.test_case "chain latency composition" `Quick test_chain_latency_composition;
    Alcotest.test_case "chain drop short-circuits" `Quick test_chain_drop_short_circuits;
    Alcotest.test_case "chain on the ASIC" `Quick test_chain_on_asic;
    Alcotest.test_case "one-stage chain == predict (corpus)" `Quick
      test_chain_one_stage_is_predict ]
