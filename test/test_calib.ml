(* Tests for lib/calib: component alignment, the JSONL ledger, and the
   report's drift detection. *)

module Calib = Clara_calib.Calib
module J = Clara_util.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let close ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let small_case ~nf ~nic =
  { (Calib.default_case ~nf ~nic) with Calib.case_packets = 600; case_flows = 200 }

let run_ok c =
  match Calib.run_case c with
  | Ok r -> r
  | Error e -> Alcotest.failf "run_case: %s" e

(* ------------------------------------------------------------------ *)
(* run_case: component alignment                                       *)

let test_components_tile () =
  let c = small_case ~nf:"nat" ~nic:"netronome" in
  let r = run_ok c in
  check "pred components tile pred mean" true
    (close (Calib.csum r.Calib.pred_comp) r.Calib.pred_mean);
  check "sim components tile sim mean" true
    (close (Calib.csum r.Calib.sim_comp) r.Calib.sim_mean);
  check "errors sum to the mean gap" true
    (close (Calib.csum r.Calib.err_comp) (r.Calib.pred_mean -. r.Calib.sim_mean));
  (* The static model has no queueing or contention. *)
  check "pred queue is zero" true (r.Calib.pred_comp.Calib.c_queue = 0.);
  check "pred accel-wait is zero" true (r.Calib.pred_comp.Calib.c_accel_wait = 0.);
  check_int "every packet attributed" c.Calib.case_packets r.Calib.packets

(* The LPM walk over 8,192 rules once traced one span per 8 rules, which
   wrapped the run's event ring: a row must cover every packet. *)
let test_lpm_every_packet () =
  List.iter
    (fun nic ->
      let c = small_case ~nf:"lpm" ~nic in
      check_int (nic ^ ": every packet attributed") c.Calib.case_packets (run_ok c).Calib.packets)
    [ "netronome"; "bluefield" ]

let test_path_argument_resolves () =
  let r = run_ok (small_case ~nf:"examples/nf_sources/syn_proxy.clara" ~nic:"netronome") in
  check_str "path reduces to corpus name" "syn-proxy" r.Calib.nf

let test_unknown_cases_error () =
  (match Calib.run_case (small_case ~nf:"no-such-nf" ~nic:"netronome") with
  | Error e -> check "unknown nf named" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected unknown-NF error");
  match Calib.run_case (small_case ~nf:"nat" ~nic:"no-such-nic") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown-NIC error"

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)

let with_temp_ledger f =
  let path = Filename.temp_file "clara-test-ledger" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () ->
      Sys.remove path;
      f path)

let mk_record ?(nf = "nat") ?(nic = "netronome") ?(gap = 5.) ?(gap_p50 = 2.) () =
  let sim_mean = 1000. in
  let pred_mean = sim_mean *. (1. +. (gap /. 100.)) in
  {
    Calib.nf;
    nic;
    workload = "p300,n600,f200,r60000,tcp0.80";
    seed = 42;
    packets = 600;
    pred_mean;
    pred_p50 = 990.;
    pred_p99 = 1400.;
    sim_mean;
    sim_p50 = 980.;
    sim_p99 = 1390.;
    gap_mean_pct = gap;
    gap_p50_pct = gap_p50;
    gap_p99_pct = 0.7;
    pred_comp = { Calib.zero_components with Calib.c_compute = pred_mean };
    sim_comp =
      { Calib.zero_components with Calib.c_compute = 900.; c_mem = 100. };
    err_comp =
      { Calib.c_queue = 0.; c_compute = pred_mean -. 900.; c_accel_wait = 0.;
        c_mem = -100.; c_wire = 0. };
    prov = Calib.current_provenance ~options_hash:"testhash";
  }

let test_record_json_roundtrip () =
  let r = mk_record () in
  (match Calib.record_of_json (Calib.record_to_json r) with
  | Ok r' -> check "roundtrip preserves the record" true (r = r')
  | Error e -> Alcotest.failf "roundtrip: %s" e);
  match Calib.record_of_json (J.Obj [ ("nf", J.String "x") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error on truncated record"

let test_ledger_append_load () =
  with_temp_ledger (fun path ->
      (match Calib.load ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "missing ledger should be an error");
      let r1 = mk_record ~gap:5. () in
      let r2 = mk_record ~gap:7. () in
      Calib.append ~path r1;
      Calib.append ~path r2;
      match Calib.load ~path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok rs ->
          check_int "two records" 2 (List.length rs);
          check "append order preserved" true (rs = [ r1; r2 ]))

let test_ledger_malformed_line () =
  with_temp_ledger (fun path ->
      Calib.append ~path (mk_record ());
      let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
      output_string oc "{not json\n";
      close_out oc;
      match Calib.load ~path with
      | Error e -> check "error names the line" true (String.length e > 0)
      | Ok _ -> Alcotest.fail "expected malformed-line error")

(* ------------------------------------------------------------------ *)
(* Report + drift                                                      *)

let test_report_groups_and_worst () =
  let recs =
    [ mk_record ~nf:"nat" ~gap:5. (); mk_record ~nf:"lpm" ~gap:(-30.) ();
      mk_record ~nf:"nat" ~gap:6. () ]
  in
  let rep = Calib.build_report recs in
  check_int "two groups" 2 (List.length rep.Calib.groups);
  let nat =
    List.find (fun g -> g.Calib.g_nf = "nat") rep.Calib.groups
  in
  check_int "nat has two entries" 2 nat.Calib.g_entries;
  check "latest entry wins" true (nat.Calib.g_latest.Calib.gap_mean_pct = 6.);
  check_str "worst component is compute" "compute" nat.Calib.g_worst;
  match Calib.report_to_json rep with
  | J.Obj kvs ->
      check "json has groups" true (List.mem_assoc "groups" kvs);
      check "json has drifts" true (List.mem_assoc "drifts" kvs)
  | _ -> Alcotest.fail "report json is not an object"

let test_drift_detection () =
  (* A perturbed latest entry must be flagged; growth below the
     threshold must not. *)
  let stable = [ mk_record ~gap:5. (); mk_record ~gap:8. () ] in
  let rep = Calib.build_report ~drift_threshold:5. stable in
  check "3pp growth under a 5pp threshold" true (rep.Calib.drifts = []);
  let drifted = [ mk_record ~gap:5. (); mk_record ~gap:25. () ] in
  let rep = Calib.build_report ~drift_threshold:5. drifted in
  (match rep.Calib.drifts with
  | [ d ] ->
      check_str "drifting metric" "mean" d.Calib.dr_metric;
      check "prev gap recorded" true (d.Calib.dr_prev_pct = 5.);
      check "latest gap recorded" true (d.Calib.dr_latest_pct = 25.)
  | ds -> Alcotest.failf "expected 1 drift, got %d" (List.length ds));
  (* Shrinking error is not drift — the gate is one-sided. *)
  let improved = [ mk_record ~gap:(-25.) (); mk_record ~gap:(-3.) () ] in
  check "improvement is not drift" true
    ((Calib.build_report ~drift_threshold:5. improved).Calib.drifts = []);
  (* p50 drifts independently of the mean. *)
  let p50_drift =
    [ mk_record ~gap:5. ~gap_p50:1. (); mk_record ~gap:5. ~gap_p50:20. () ]
  in
  match (Calib.build_report ~drift_threshold:5. p50_drift).Calib.drifts with
  | [ d ] -> check_str "p50 metric flagged" "p50" d.Calib.dr_metric
  | ds -> Alcotest.failf "expected 1 p50 drift, got %d" (List.length ds)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_pp_report_renders () =
  let rep =
    Calib.build_report ~drift_threshold:5.
      [ mk_record ~gap:5. (); mk_record ~gap:25. () ]
  in
  let text = Format.asprintf "%a" Calib.pp_report rep in
  check "report names the nf" true (contains text "nat");
  check "report shouts about drift" true (contains text "DRIFT")

let suite =
  [ Alcotest.test_case "components tile the totals" `Quick test_components_tile;
    Alcotest.test_case "every lpm packet attributed" `Quick test_lpm_every_packet;
    Alcotest.test_case "path argument resolves to corpus NF" `Quick
      test_path_argument_resolves;
    Alcotest.test_case "unknown nf/nic are errors" `Quick test_unknown_cases_error;
    Alcotest.test_case "record json roundtrip" `Quick test_record_json_roundtrip;
    Alcotest.test_case "ledger append + load" `Quick test_ledger_append_load;
    Alcotest.test_case "ledger malformed line" `Quick test_ledger_malformed_line;
    Alcotest.test_case "report groups + worst component" `Quick
      test_report_groups_and_worst;
    Alcotest.test_case "drift detection on perturbed ledger" `Quick
      test_drift_detection;
    Alcotest.test_case "report rendering" `Quick test_pp_report_renders ]
