(* Integration tests: the Clara facade, reports, and the microbenchmark
   calibration loop (§3.2 parameters recovered from the simulator). *)

module W = Clara_workload
module L = Clara_lnic
module Mb = Clara.Microbench

let check = Alcotest.(check bool)
let lnic = L.Netronome.default

let profile = W.Profile.make ~packets:3_000 ~flow_count:1_000 ()

let test_analyze_ok () =
  List.iter
    (fun (name, src) ->
      match Clara.analyze_for_profile lnic ~source:src ~profile with
      | Ok a ->
          check (name ^ " has nodes") true (Array.length a.Clara.df.Clara_dataflow.Graph.nodes > 0)
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    [ ("nat", Clara_nfs.Nat.source ());
      ("lpm", Clara_nfs.Lpm.source ~entries:4096);
      ("firewall", Clara_nfs.Firewall.source ());
      ("dpi", Clara_nfs.Dpi.source);
      ("dpi-raw", Clara_nfs.Dpi.source_raw_loop);
      ("heavy-hitter", Clara_nfs.Heavy_hitter.source ());
      ("vnf", Clara_nfs.Vnf_chain.source ()) ]

let test_analyze_errors () =
  let bad_syntax = "nf x { handler h(p) { var = ; } }" in
  let bad_types = "nf x { handler h(p) { emit(q); } }" in
  (match Clara.analyze_for_profile lnic ~source:bad_syntax ~profile with
  | Error e -> check "syntax error reported" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "syntax error not caught");
  match Clara.analyze_for_profile lnic ~source:bad_types ~profile with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "type error not caught"

let test_report_contents () =
  match Clara.analyze_for_profile lnic ~source:(Clara_nfs.Nat.source ()) ~profile with
  | Error e -> Alcotest.fail e
  | Ok a ->
      let trace = W.Trace.synthesize ~seed:2L profile in
      let r = Clara.Report.build ~trace a in
      let s = Clara.Report.to_string r in
      let contains needle =
        let nl = String.length needle and sl = String.length s in
        let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
        go 0
      in
      check "mentions the NF" true (contains "nat");
      check "mentions the NIC" true (contains "netronome");
      check "has mapping section" true (contains "mapping");
      check "has packet-type paths" true (contains "per-packet-type");
      check "has throughput" true (contains "throughput");
      check "mentions state placement" true (contains "flow_table");
      check "prediction present" true (r.Clara.Report.prediction <> None);
      check "paths non-empty" true (r.Clara.Report.paths <> [])

(* Every section of the report prices at the profile's own sizes: a
   64 B and a 1400 B payload must move throughput, energy and the best
   split, not only the per-packet walk. *)
let test_report_follows_payload () =
  let at payload =
    let profile = W.Profile.make ~payload:(W.Dist.Fixed payload) ~packets:1_000 () in
    match Clara.analyze_for_profile lnic ~source:(Clara_nfs.Nat.source ()) ~profile with
    | Error e -> Alcotest.fail e
    | Ok a -> Clara.Report.build ~rate_pps:profile.W.Profile.rate_pps a
  in
  let small = at 64 and large = at 1400 in
  let max_pps (r : Clara.Report.t) = r.Clara.Report.throughput.Clara_predict.Throughput.max_pps in
  let nj (r : Clara.Report.t) =
    (Option.get r.Clara.Report.energy).Clara_predict.Energy.nj_per_packet
  in
  let split_ns (r : Clara.Report.t) =
    (fst (List.hd r.Clara.Report.splits)).Clara_predict.Partial.total_ns
  in
  check "throughput max_pps follows payload" true (max_pps small <> max_pps large);
  check "energy nJ/pkt follows payload" true (nj small <> nj large);
  check "best split total_ns follows payload" true (split_ns small <> split_ns large)

let test_fit_linear () =
  (* Perfect line recovered exactly. *)
  let samples = List.map (fun x -> (float_of_int x, 50. +. (0.25 *. float_of_int x))) [ 10; 100; 500; 1000 ] in
  let f = Mb.fit_linear samples in
  check "base" true (Float.abs (f.Mb.base -. 50.) < 1e-6);
  check "slope" true (Float.abs (f.Mb.per_unit -. 0.25) < 1e-9);
  check "degenerate input rejected" true
    (try ignore (Mb.fit_linear [ (1., 1.) ]); false with Invalid_argument _ -> true)

let test_calibration_recovers_params () =
  (* Running the §3.2 microbenchmarks against the simulator must recover
     the parameters the simulator was configured with. *)
  let c = Mb.calibrate lnic in
  (* Engine checksum: 50 + 0.25/B. *)
  check "checksum engine base ~50" true (Float.abs (c.Mb.checksum_engine.Mb.base -. 50.) < 10.);
  check "checksum engine slope ~0.25" true
    (Float.abs (c.Mb.checksum_engine.Mb.per_unit -. 0.25) < 0.05);
  (* Software checksum ~1700 cycles above the engine at 1000 B. *)
  let at f n = f.Mb.base +. (f.Mb.per_unit *. n) in
  check "software - engine ~1700 @1000B" true
    (at c.Mb.checksum_software 1000. -. at c.Mb.checksum_engine 1000. > 1200.);
  (* Parse engine ~40 cycles. *)
  check "parse engine ~40" true (Float.abs (c.Mb.parse_engine_cycles -. 40.) < 15.);
  (* Metadata move 2-5 cycles (§3.2). *)
  check "move 2-5 cyc" true (c.Mb.move_cycles >= 2. && c.Mb.move_cycles <= 5.);
  (* LPM walk slope: ~40 cyc compute + amortized memory per entry. *)
  check "lpm slope in range" true
    (c.Mb.lpm_emem.Mb.per_unit > 40. && c.Mb.lpm_emem.Mb.per_unit < 120.);
  (* EMEM cache knee between 3 MB (the cache) and 8 MB. *)
  match c.Mb.emem_cache_knee_bytes with
  | Some b ->
      check "knee past the 3MB cache" true (b >= 3 * 1024 * 1024);
      check "knee below 8MB" true (b <= 8 * 1024 * 1024)
  | None -> Alcotest.fail "no knee detected"

let test_memory_curve_shape () =
  let curve =
    Mb.measure_memory_curve lnic
      ~working_sets:[ 1024 * 1024; 2 * 1024 * 1024; 8 * 1024 * 1024; 16 * 1024 * 1024 ]
  in
  match curve with
  | [ (_, small); _; _; (_, big) ] ->
      check "latency rises past the cache" true (big > small +. 100.)
  | _ -> Alcotest.fail "unexpected curve arity"

let test_soc_calibration_differs () =
  let netro = Mb.calibrate lnic in
  let soc = Mb.calibrate L.Soc_nic.default in
  (* The SoC's software checksum is far cheaper per byte (faster cores,
     conventional caches). *)
  check "targets produce different parameter tables" true
    (Float.abs (netro.Mb.checksum_software.Mb.base -. soc.Mb.checksum_software.Mb.base) > 100.)

let test_device_placement_of_state () =
  let options =
    { Clara_mapping.Mapping.default_options with
      Clara_mapping.Mapping.disallowed_accels = [ L.Unit_.Lookup ] }
  in
  match
    Clara.analyze_for_profile ~options lnic ~source:(Clara_nfs.Lpm.source ~entries:4096)
      ~profile
  with
  | Error e -> Alcotest.fail e
  | Ok a -> (
      match Clara.device_placement_of_state a "routes" with
      | Some (Clara_nicsim.Device.P_ctm | Clara_nicsim.Device.P_imem | Clara_nicsim.Device.P_emem) -> ()
      | Some Clara_nicsim.Device.P_flow_cache -> Alcotest.fail "flow cache was disallowed"
      | None -> Alcotest.fail "state unplaced")

let test_json_emitter () =
  let open Clara_util.Json in
  Alcotest.(check string) "escaping" {|"a\"b\\c\nd"|}
    (to_string ~pretty:false (String "a\"b\\c\nd"));
  Alcotest.(check string) "nan -> null" "null" (to_string (Float Float.nan));
  Alcotest.(check string) "compact object" {|{"a":1,"b":[true,null]}|}
    (to_string ~pretty:false (Obj [ ("a", Int 1); ("b", List [ Bool true; Null ]) ]));
  Alcotest.(check string) "empty containers" {|[{},[]]|}
    (to_string ~pretty:false (List [ Obj []; List [] ]))

let test_report_json () =
  match Clara.analyze_for_profile lnic ~source:(Clara_nfs.Nat.source ()) ~profile with
  | Error e -> Alcotest.fail e
  | Ok a ->
      let trace = W.Trace.synthesize ~seed:2L profile in
      let j = Clara.Report.to_json (Clara.Report.build ~trace a) in
      let s = Clara_util.Json.to_string ~pretty:false j in
      let contains needle =
        let nl = String.length needle and sl = String.length s in
        let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
        go 0
      in
      check "nf field" true (contains {|"nf":"nat"|});
      check "mapping array" true (contains {|"mapping":[|});
      check "packet types" true (contains {|"packet_types":|});
      check "prediction" true (contains {|"mean_cycles":|});
      check "bottleneck" true (contains {|"bottleneck":|})

let test_predict_profile_deterministic () =
  match Clara.analyze_for_profile lnic ~source:(Clara_nfs.Nat.source ()) ~profile with
  | Error e -> Alcotest.fail e
  | Ok a ->
      let p1 = Clara.predict_profile ~seed:5L a profile in
      let p2 = Clara.predict_profile ~seed:5L a profile in
      check "same seed, same prediction" true
        (p1.Clara_predict.Latency.mean_cycles = p2.Clara_predict.Latency.mean_cycles)

let suite =
  [ Alcotest.test_case "analyze accepts the NF corpus" `Quick test_analyze_ok;
    Alcotest.test_case "analyze reports errors" `Quick test_analyze_errors;
    Alcotest.test_case "report contents" `Quick test_report_contents;
    Alcotest.test_case "report follows the profile's payload" `Quick
      test_report_follows_payload;
    Alcotest.test_case "linear fitting" `Quick test_fit_linear;
    Alcotest.test_case "calibration recovers §3.2 parameters" `Quick
      test_calibration_recovers_params;
    Alcotest.test_case "memory latency curve shape" `Quick test_memory_curve_shape;
    Alcotest.test_case "per-NIC calibration differs" `Quick test_soc_calibration_differs;
    Alcotest.test_case "placement translation" `Quick test_device_placement_of_state;
    Alcotest.test_case "json emitter" `Quick test_json_emitter;
    Alcotest.test_case "report as json" `Quick test_report_json;
    Alcotest.test_case "predict_profile determinism" `Quick test_predict_profile_deterministic ]
