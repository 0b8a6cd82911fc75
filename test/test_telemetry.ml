(* Tests for the time-series telemetry layer: lib/obs/timeseries
   windowing and merge, and the nicsim Telemetry collector's two
   contracts — metrics off is byte-identical to the seed behavior, and
   sharded collection is deterministic. *)

module Ts = Clara_obs.Timeseries
module Tel = Clara_nicsim.Telemetry
module Eng = Clara_nicsim.Engine
module J = Clara_util.Json
module L = Clara_lnic
module W = Clara_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let lnic = L.Netronome.default

let profile ?(packets = 2_000) () =
  W.Profile.make ~payload:(W.Dist.Fixed 300) ~packets ~flow_count:500
    ~rate_pps:60_000. ~tcp_fraction:0.8 ()

(* ------------------------------------------------------------------ *)
(* Timeseries                                                          *)

let test_ts_windowing () =
  let s = Ts.create ~max_windows:8 ~name:"g" ~kind:Ts.Gauge ~cadence:10 () in
  Ts.observe s ~now:0 2.;
  Ts.observe s ~now:5 4.;
  Ts.observe s ~now:25 6.;
  check_int "count" 3 (Ts.count s);
  check "total" true (Ts.total s = 12.);
  (match Ts.windows s with
  | [ w0; w2 ] ->
      check_int "w0 start" 0 w0.Ts.w_start;
      check "w0 gauge mean" true (Ts.value Ts.Gauge w0 = 3.);
      check_int "w2 start" 20 w2.Ts.w_start;
      check_int "w2 count" 1 w2.Ts.w_count
  | ws -> Alcotest.failf "expected 2 windows, got %d" (List.length ws));
  (* Rate value is the sum, not the mean. *)
  let r = Ts.create ~max_windows:8 ~name:"r" ~kind:Ts.Rate ~cadence:10 () in
  Ts.observe r ~now:3 5.;
  Ts.observe r ~now:7 5.;
  match Ts.windows r with
  | [ w ] -> check "rate sum" true (Ts.value Ts.Rate w = 10.)
  | _ -> Alcotest.fail "expected one window"

let test_ts_downsample_exact () =
  let s = Ts.create ~max_windows:8 ~name:"d" ~kind:Ts.Rate ~cadence:1 () in
  (* 100 observations force several cadence doublings (8 windows of
     cadence 1 hold only now < 8); sums and counts must survive
     exactly. *)
  for now = 0 to 99 do
    Ts.observe s ~now (float_of_int now)
  done;
  check_int "count exact" 100 (Ts.count s);
  check "total exact" true (Ts.total s = float_of_int (99 * 100 / 2));
  check "cadence grew" true (Ts.cadence s > 1);
  check "base cadence kept" true (Ts.base_cadence s = 1);
  let wsum = List.fold_left (fun a w -> a +. w.Ts.w_sum) 0. (Ts.windows s) in
  let wcount = List.fold_left (fun a w -> a + w.Ts.w_count) 0 (Ts.windows s) in
  check "window sums tile total" true (wsum = Ts.total s);
  check_int "window counts tile count" 100 wcount

let test_ts_observe_agg_equiv () =
  let a = Ts.create ~max_windows:8 ~name:"x" ~kind:Ts.Gauge ~cadence:10 () in
  let b = Ts.create ~max_windows:8 ~name:"x" ~kind:Ts.Gauge ~cadence:10 () in
  List.iter (fun v -> Ts.observe a ~now:12 v) [ 1.; 2.; 3. ];
  Ts.observe_agg b ~now:12 ~sum:6. ~count:3;
  check_str "agg == per-event observes" (J.to_string (Ts.to_json a))
    (J.to_string (Ts.to_json b));
  (* count=0 is a no-op, even with a time jump that would downsample. *)
  Ts.observe_agg b ~now:1_000_000 ~sum:0. ~count:0;
  check_str "count=0 no-op" (J.to_string (Ts.to_json a)) (J.to_string (Ts.to_json b))

let test_ts_merge_partition_independent () =
  (* One integral event stream split across 1, 2 and 4 series: the
     merge must not depend on the partitioning.  This is the property
     that makes sharded-run telemetry deterministic. *)
  let events = List.init 200 (fun i -> ((i * 37) mod 500, float_of_int (1 + (i mod 7)))) in
  let split n =
    let parts =
      Array.init n (fun _ -> Ts.create ~max_windows:16 ~name:"m" ~kind:Ts.Rate ~cadence:4 ())
    in
    List.iteri (fun i (now, v) -> Ts.observe parts.(i mod n) ~now v) events;
    Ts.merge (Array.to_list parts)
  in
  let j1 = J.to_string (Ts.to_json (split 1)) in
  let j2 = J.to_string (Ts.to_json (split 2)) in
  let j4 = J.to_string (Ts.to_json (split 4)) in
  check_str "1-way == 2-way" j1 j2;
  check_str "2-way == 4-way" j2 j4

let test_ts_merge_validates () =
  let a = Ts.create ~name:"a" ~kind:Ts.Rate ~cadence:4 () in
  let b = Ts.create ~name:"b" ~kind:Ts.Rate ~cadence:4 () in
  check "empty merge raises" true
    (try ignore (Ts.merge []); false with Invalid_argument _ -> true);
  check "name mismatch raises" true
    (try ignore (Ts.merge [ a; b ]); false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Telemetry collector: byte-identity and determinism                  *)

let result_json r = J.to_string (Eng.result_to_json r)

let test_metrics_off_identity_run () =
  let prog = Clara_nfs.Nat.ported ~checksum_engine:true () in
  let trace = W.Trace.synthesize ~seed:31L (profile ()) in
  let r_off = Eng.run lnic prog trace in
  let tel = Tel.create () in
  let r_on = Eng.run lnic prog ~metrics:tel trace in
  check_str "run: metrics on == off" (result_json r_off) (result_json r_on);
  check "collector saw packets" true
    (List.exists (fun s -> Ts.count s > 0) (Tel.series tel))

let test_metrics_off_identity_tenants () =
  let progs =
    [| Clara_nfs.Nat.ported ~checksum_engine:true (); Clara_nfs.Dpi.ported () |]
  in
  let traces =
    [| W.Trace.synthesize ~seed:31L (profile ());
       W.Trace.synthesize ~seed:57L (profile ()) |]
  in
  let r_off = Eng.run_tenants lnic progs traces in
  let tel = Tel.create () in
  let r_on = Eng.run_tenants lnic progs ~metrics:tel traces in
  Array.iteri
    (fun i r ->
      check_str (Printf.sprintf "tenant %d identical" i) (result_json r)
        (result_json r_on.(i)))
    r_off;
  check_int "collector tracks both tenants" 2 (Array.length (Tel.tenant_names tel))

let test_metrics_off_identity_sharded () =
  let prog = Clara_nfs.Nat.ported ~checksum_engine:true () in
  let trace = W.Trace.synthesize ~seed:31L (profile ()) in
  let r_off = Eng.run_sharded ~domains:2 ~shards:4 lnic prog trace in
  let tel = Tel.create () in
  let r_on = Eng.run_sharded ~domains:2 ~shards:4 lnic prog ~metrics:tel trace in
  check_str "sharded: metrics on == off" (result_json r_off) (result_json r_on)

let metrics_json tel = J.to_string (Tel.to_json tel)

let test_sharded_metrics_domain_determinism () =
  (* Same shard count, different domain counts: the merged metrics must
     be byte-identical — worker collectors are per shard, not per
     domain, and absorb merges in shard order. *)
  let prog = Clara_nfs.Nat.ported ~checksum_engine:true () in
  let trace = W.Trace.synthesize ~seed:31L (profile ()) in
  let t1 = Tel.create () in
  ignore (Eng.run_sharded ~domains:1 ~shards:4 lnic prog ~metrics:t1 trace);
  let t3 = Tel.create () in
  ignore (Eng.run_sharded ~domains:3 ~shards:4 lnic prog ~metrics:t3 trace);
  check_str "1-domain == 3-domain metrics" (metrics_json t1) (metrics_json t3)

let test_sharded_metrics_shard_count_totals () =
  (* Sharding repartitions the stream into independent per-shard sims,
     so latencies legitimately differ between shard counts — but the
     merged series must stay consistent with the engine's own summary,
     and at a non-saturating rate every packet is admitted regardless of
     the shard count. *)
  let prog = Clara_nfs.Nat.ported ~checksum_engine:true () in
  let trace = W.Trace.synthesize ~seed:31L (profile ()) in
  let find tel n =
    List.find (fun s -> Ts.name s = n) (Tel.series tel)
  in
  let run shards =
    let tel = Tel.create () in
    let r = Eng.run_sharded ~domains:2 ~shards lnic prog ~metrics:tel trace in
    (tel, r)
  in
  let tel4, r4 = run 4 in
  let s = r4.Eng.summary in
  let goodput = find tel4 "tenant0.goodput" in
  let latency = find tel4 "tenant0.latency" in
  check_int "goodput total == admitted packets" s.Clara_nicsim.Stats.packets
    (int_of_float (Ts.total goodput));
  check_int "latency samples == admitted packets" s.Clara_nicsim.Stats.packets
    (Ts.count latency);
  check "latency mean matches summary" true
    (Float.abs
       ((Ts.total latency /. float_of_int (Ts.count latency))
       -. s.Clara_nicsim.Stats.mean_cycles)
    < 1.);
  let tel2, r2 = run 2 in
  check_int "admitted packets stable across shard counts"
    r2.Eng.summary.Clara_nicsim.Stats.packets s.Clara_nicsim.Stats.packets;
  check "goodput series agrees across shard counts" true
    (Ts.total (find tel2 "tenant0.goodput") = Ts.total goodput)

let test_telemetry_csv_shape () =
  let prog = Clara_nfs.Nat.ported ~checksum_engine:true () in
  let trace = W.Trace.synthesize ~seed:31L (profile ~packets:400 ()) in
  let tel = Tel.create () in
  ignore (Eng.run lnic prog ~metrics:tel trace);
  (match Tel.to_csv tel |> String.split_on_char '\n' with
  | header :: (_ :: _ as rows) ->
      check_str "csv header" Ts.csv_header header;
      check "csv has data rows" true
        (List.exists (fun r -> String.length r > 0) rows)
  | _ -> Alcotest.fail "empty csv");
  match Tel.to_json tel with
  | J.Obj kvs ->
      check "json has schema" true (List.mem_assoc "schema" kvs);
      check "json has series" true (List.mem_assoc "series" kvs)
  | _ -> Alcotest.fail "metrics json is not an object"

let test_telemetry_series_names () =
  (* Exactly the series telemetry.mli documents, in its order: ten per
     tenant, then the three sim-wide ones — for a fresh collector, after
     [set_tenants], and after a run. *)
  let per_tenant =
    [ "queue_depth"; "goodput"; "drops"; "latency"; "busy_cycles"; "wrr_deficit";
      "fc_hits"; "fc_misses"; "emem_hits"; "emem_misses" ]
  in
  let expected ntenants =
    List.concat
      (List.init ntenants (fun i -> List.map (Printf.sprintf "tenant%d.%s" i) per_tenant))
    @ [ "accel_busy"; "dma_busy"; "upcalls" ]
  in
  let names tel = List.map Ts.name (Tel.series tel) in
  let names_check = Alcotest.(check (list string)) in
  let tel = Tel.create () in
  names_check "fresh collector" (expected 1) (names tel);
  Tel.set_tenants tel [| "a"; "b"; "c" |];
  names_check "three tenants" (expected 3) (names tel);
  let trace = W.Trace.synthesize ~seed:31L (profile ~packets:400 ()) in
  ignore (Eng.run lnic (Clara_nfs.Nat.ported ~checksum_engine:true ()) ~metrics:tel trace);
  names_check "after a run" (expected 1) (names tel)

let suite =
  [ Alcotest.test_case "timeseries windowing" `Quick test_ts_windowing;
    Alcotest.test_case "timeseries downsample exactness" `Quick
      test_ts_downsample_exact;
    Alcotest.test_case "timeseries observe_agg equivalence" `Quick
      test_ts_observe_agg_equiv;
    Alcotest.test_case "timeseries merge partition independence" `Quick
      test_ts_merge_partition_independent;
    Alcotest.test_case "timeseries merge validation" `Quick test_ts_merge_validates;
    Alcotest.test_case "metrics off byte-identity: run" `Quick
      test_metrics_off_identity_run;
    Alcotest.test_case "metrics off byte-identity: run_tenants" `Quick
      test_metrics_off_identity_tenants;
    Alcotest.test_case "metrics off byte-identity: run_sharded" `Quick
      test_metrics_off_identity_sharded;
    Alcotest.test_case "sharded metrics domain determinism" `Quick
      test_sharded_metrics_domain_determinism;
    Alcotest.test_case "sharded metrics shard-count totals" `Quick
      test_sharded_metrics_shard_count_totals;
    Alcotest.test_case "telemetry csv + json shape" `Quick test_telemetry_csv_shape;
    Alcotest.test_case "telemetry series names" `Quick test_telemetry_series_names ]
