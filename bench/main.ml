(* Benchmark harness: regenerates every table and figure in the paper's
   evaluation, plus the ablations DESIGN.md calls out.  The tool's own
   stage costs are timed by perfbench's traced layers
   ([python3 perfbench/run.py --trace 1]).

   Usage:  dune exec bench/main.exe [-- section ...]
   Sections: figure1 figure3a figure3b figure3c microbench mapping
             ablations ilp interference nics throughput chains energy
             partial zoo sweep trace nicsim offpath tenants lint bounds
             (default: all) *)

module W = Clara_workload
module L = Clara_lnic
module Dev = Clara_nicsim.Device
module Eng = Clara_nicsim.Engine
module SStats = Clara_nicsim.Stats
module Map_ = Clara_mapping.Mapping
module Lat = Clara_predict.Latency

let lnic = L.Netronome.default

let profile ?(payload = W.Dist.Fixed 300) ?(packets = 20_000) ?(flows = 5_000)
    ?(rate = 60_000.) ?(tcp = 0.8) () =
  W.Profile.make ~payload ~packets ~flow_count:flows ~rate_pps:rate ~tcp_fraction:tcp ()

let no_flow_cache =
  { Map_.default_options with Map_.disallowed_accels = [ L.Unit_.Lookup ] }

(* Figure 3a's software match/action variant keeps its rules in DRAM for
   every sweep point, as the paper's implementation does. *)
let fig3a_options =
  { no_flow_cache with Map_.pin_state = [ ("routes", Clara_lnic.Memory.External) ] }

let no_accels =
  { Map_.default_options with
    Map_.disallowed_accels =
      [ L.Unit_.Parse; L.Unit_.Checksum; L.Unit_.Lookup; L.Unit_.Crypto;
        L.Unit_.Eswitch ] }

let analyze_exn ?options src prof =
  match Clara.analyze_for_profile ?options lnic ~source:src ~profile:prof with
  | Ok a -> a
  | Error e -> failwith ("analyze: " ^ e)

let simulate prog prof ~seed =
  let trace = W.Trace.synthesize ~seed prof in
  (Eng.run lnic prog trace).Eng.summary.SStats.mean_cycles

let predict_and_simulate ?options src prog prof ~seed =
  let a = analyze_exn ?options src prof in
  let trace = W.Trace.synthesize ~seed prof in
  let predicted = (Clara.predict a trace).Lat.mean_cycles in
  let actual = (Eng.run lnic prog trace).Eng.summary.SStats.mean_cycles in
  (predicted, actual)

let header title =
  Printf.printf "\n================ %s ================\n%!" title

(* When CLARA_CSV_DIR is set, figure sections also write their series as
   CSV files for external plotting. *)
let csv_out name columns rows =
  match Sys.getenv_opt "CLARA_CSV_DIR" with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (String.concat "," columns ^ "\n");
          List.iter
            (fun row ->
              output_string oc (String.concat "," (List.map string_of_float row) ^ "\n"))
            rows);
      Printf.printf "[csv] wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* BENCH_nicsim.json snapshot plumbing.  Sections merge their own keys
   into the snapshot (CLARA_BENCH_JSON, default the committed baseline)
   so `bench nicsim` and `bench offpath` can each run alone without
   clobbering the other's entry.  Schema v2 carries a provenance object
   (git commit, OCaml version, host, UTC timestamp) beside the nicsim
   and offpath entries; it is the only schema written or read. *)

let bench_baseline_path = "BENCH_nicsim.json"

let bench_out_path () =
  Option.value (Sys.getenv_opt "CLARA_BENCH_JSON") ~default:bench_baseline_path

let read_json_file path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    if String.trim s = "" then None
    else
      match Clara_util.Json.parse s with
      | Ok j -> Some j
      | Error e ->
          Printf.printf "[warn] %s unreadable: %s\n" path e;
          None
  end

let load_baseline () =
  match read_json_file bench_baseline_path with
  | None -> None
  | Some j -> (
      match
        Option.bind (Clara_util.Json.member "schema" j) Clara_util.Json.to_int_opt
      with
      | Some 2 -> Some j
      | Some v ->
          Printf.printf "[warn] %s: unsupported schema %d (expected 2)\n"
            bench_baseline_path v;
          None
      | None ->
          Printf.printf "[warn] %s: no schema field\n" bench_baseline_path;
          None)

(* Read-modify-write: replace [fields] in the snapshot, keep everything
   else, and restamp schema + provenance. *)
let update_snapshot fields =
  let path = bench_out_path () in
  let keep (k, _) =
    k <> "schema" && k <> "provenance" && not (List.mem_assoc k fields)
  in
  let old =
    match read_json_file path with
    | Some (Clara_util.Json.Obj kvs) -> List.filter keep kvs
    | _ -> []
  in
  let p = Clara_calib.Calib.current_provenance ~options_hash:"bench" in
  let prov =
    Clara_util.Json.Obj
      [ ("timestamp", Clara_util.Json.String p.Clara_calib.Calib.timestamp);
        ("git_commit", Clara_util.Json.String p.Clara_calib.Calib.git_commit);
        ("ocaml_version", Clara_util.Json.String p.Clara_calib.Calib.ocaml_version);
        ("host", Clara_util.Json.String p.Clara_calib.Calib.host) ]
  in
  let snapshot =
    Clara_util.Json.Obj
      (("schema", Clara_util.Json.Int 2)
      :: ("provenance", prov)
      :: (fields @ old))
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Clara_util.Json.to_channel oc snapshot);
  Printf.printf "[json] wrote %s\n" path

(* Soft gates: a missed budget warns by default and fails the bench
   under CLARA_BENCH_ENFORCE=1. *)
let enforce = Sys.getenv_opt "CLARA_BENCH_ENFORCE" = Some "1"

let soft_fail msg =
  if enforce then failwith msg
  else Printf.printf "[warn] %s (CLARA_BENCH_ENFORCE=1 would fail)\n" msg

(* ------------------------------------------------------------------ *)
(* Figure 1: performance variability of five NFs                       *)

let figure1 () =
  header "Figure 1: NF performance variability (simulator, normalized latency)";
  Printf.printf
    "Five NFs, 2-4 variants each with the same core logic; latency normalized\n";
  Printf.printf "against the fastest variant of each NF (paper: up to 13.8x).\n\n";
  let base_prof = profile ~packets:10_000 () in
  let groups =
    [ ( "NAT",
        [ ("csum-engine", Clara_nfs.Nat.ported ~checksum_engine:true (), base_prof);
          ("csum-software", Clara_nfs.Nat.ported ~checksum_engine:false (), base_prof) ] );
      ( "DPI",
        [ ("256B packets", Clara_nfs.Dpi.ported (), profile ~packets:10_000 ~payload:(W.Dist.Fixed 256) ());
          ("512B packets", Clara_nfs.Dpi.ported (), profile ~packets:10_000 ~payload:(W.Dist.Fixed 512) ());
          ("1024B packets", Clara_nfs.Dpi.ported (), profile ~packets:10_000 ~payload:(W.Dist.Fixed 1024) ()) ] );
      ( "FW",
        [ ("state in CTM", Clara_nfs.Firewall.ported ~entries:8192 ~placement:Dev.P_ctm (), base_prof);
          ("state in IMEM", Clara_nfs.Firewall.ported ~entries:8192 ~placement:Dev.P_imem (), base_prof);
          ("state in EMEM / skewed flows", Clara_nfs.Firewall.ported ~entries:65536 ~placement:Dev.P_emem (), base_prof);
          ( "state in EMEM / huge table, uniform flows",
            Clara_nfs.Firewall.ported ~entries:2_000_000 ~placement:Dev.P_emem (),
            W.Profile.make ~payload:(W.Dist.Fixed 300) ~packets:10_000
              ~flow_count:60_000 ~flow_skew:0.0 ~rate_pps:60_000. () ) ] );
      ( "LPM",
        [ ("1k rules + flow cache", Clara_nfs.Lpm.ported ~entries:1000 ~use_flow_cache:true (), base_prof);
          ("1k rules, software", Clara_nfs.Lpm.ported ~entries:1000 ~use_flow_cache:false (), base_prof);
          ("4k rules + flow cache", Clara_nfs.Lpm.ported ~entries:4000 ~use_flow_cache:true (), base_prof);
          ("4k rules, software", Clara_nfs.Lpm.ported ~entries:4000 ~use_flow_cache:false (), base_prof) ] );
      ( "HH",
        [ ("100 kpps", Clara_nfs.Heavy_hitter.ported (), profile ~packets:10_000 ~rate:100_000. ());
          ("1 Mpps", Clara_nfs.Heavy_hitter.ported (), profile ~packets:20_000 ~rate:1_000_000. ());
          ("1.8 Mpps", Clara_nfs.Heavy_hitter.ported (), profile ~packets:20_000 ~rate:1_800_000. ()) ] ) ]
  in
  let spread_max = ref 1. in
  List.iter
    (fun (nf, variants) ->
      let lats =
        List.map (fun (name, prog, prof) -> (name, simulate prog prof ~seed:31L)) variants
      in
      let fastest = List.fold_left (fun a (_, l) -> Float.min a l) Float.infinity lats in
      Printf.printf "%-4s\n" nf;
      List.iter
        (fun (name, l) ->
          Printf.printf "    %-28s %12.0f cyc   %6.2fx\n" name l (l /. fastest))
        lats;
      let worst = List.fold_left (fun a (_, l) -> Float.max a l) 0. lats in
      spread_max := Float.max !spread_max (worst /. fastest))
    groups;
  Printf.printf "\nmax variability across NFs: %.1fx (paper reports up to 13.8x)\n" !spread_max

(* ------------------------------------------------------------------ *)
(* Figure 3: prediction accuracy sweeps                                *)

let pct_err p a = 100. *. (p -. a) /. a

let figure3a () =
  header "Figure 3a: LPM latency vs table entries (predicted vs actual)";
  Printf.printf "%-10s %14s %14s %8s\n" "entries" "predicted" "actual" "err";
  let prof = profile ~packets:10_000 () in
  let rows = ref [] in
  let errs =
    List.map
      (fun entries ->
        let src = Clara_nfs.Lpm.source ~entries in
        let a = analyze_exn ~options:fig3a_options src prof in
        let placement =
          Option.value ~default:Dev.P_emem (Clara.device_placement_of_state a "routes")
        in
        let prog = Clara_nfs.Lpm.ported ~entries ~use_flow_cache:false ~placement () in
        let trace = W.Trace.synthesize ~seed:31L prof in
        let predicted = (Clara.predict a trace).Lat.mean_cycles in
        let actual = (Eng.run lnic prog trace).Eng.summary.SStats.mean_cycles in
        Printf.printf "%-10d %12.0f K %12.0f K %+7.1f%%\n" entries (predicted /. 1000.)
          (actual /. 1000.) (pct_err predicted actual);
        rows := [ float_of_int entries; predicted; actual ] :: !rows;
        Float.abs (pct_err predicted actual))
      [ 5_000; 10_000; 15_000; 20_000; 25_000; 30_000 ]
  in
  csv_out "figure3a" [ "entries"; "predicted_cycles"; "actual_cycles" ] (List.rev !rows);
  Printf.printf "mean |err| %.1f%% (paper: 12%%)\n"
    (List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs))

let payload_sweep = [ 200; 400; 600; 800; 1000; 1200; 1400 ]

let figure3b () =
  header "Figure 3b: VNF chain latency vs payload size (predicted vs actual)";
  Printf.printf "%-10s %14s %14s %8s\n" "payload" "predicted" "actual" "err";
  let rows = ref [] in
  let errs =
    List.map
      (fun pay ->
        let prof = profile ~packets:10_000 ~payload:(W.Dist.Fixed pay) () in
        let predicted, actual =
          predict_and_simulate (Clara_nfs.Vnf_chain.source ()) (Clara_nfs.Vnf_chain.ported ())
            prof ~seed:31L
        in
        Printf.printf "%-10d %12.0f K %12.0f K %+7.1f%%\n" pay (predicted /. 1000.)
          (actual /. 1000.) (pct_err predicted actual);
        rows := [ float_of_int pay; predicted; actual ] :: !rows;
        Float.abs (pct_err predicted actual))
      payload_sweep
  in
  csv_out "figure3b" [ "payload_bytes"; "predicted_cycles"; "actual_cycles" ]
    (List.rev !rows);
  Printf.printf "mean |err| %.1f%% (paper: 3%%)\n"
    (List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs))

let figure3c () =
  header "Figure 3c: NAT latency vs payload size (predicted vs actual)";
  Printf.printf "%-10s %14s %14s %8s\n" "payload" "predicted" "actual" "err";
  let rows = ref [] in
  let errs =
    List.map
      (fun pay ->
        let prof = profile ~packets:10_000 ~payload:(W.Dist.Fixed pay) () in
        let predicted, actual =
          predict_and_simulate (Clara_nfs.Nat.source ())
            (Clara_nfs.Nat.ported ~checksum_engine:true ())
            prof ~seed:31L
        in
        Printf.printf "%-10d %12.0f   %12.0f   %+7.1f%%\n" pay predicted actual
          (pct_err predicted actual);
        rows := [ float_of_int pay; predicted; actual ] :: !rows;
        Float.abs (pct_err predicted actual))
      payload_sweep
  in
  csv_out "figure3c" [ "payload_bytes"; "predicted_cycles"; "actual_cycles" ]
    (List.rev !rows);
  Printf.printf "mean |err| %.1f%% (paper: 7%%)\n"
    (List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs))

(* ------------------------------------------------------------------ *)
(* Per-packet-type validation (§3.5's example output)                  *)

let packet_types () =
  header "Per-packet-type latency (§3.5): predicted vs simulated, firewall";
  let prof = profile ~packets:12_000 ~tcp:0.7 () in
  let trace = W.Trace.synthesize ~seed:31L prof in
  match Clara.analyze_for_profile lnic ~source:(Clara_nfs.Firewall.source ()) ~profile:prof with
  | Error e -> Printf.printf "error: %s
" e
  | Ok a ->
      let p = Clara.predict a trace in
      let r = Eng.run lnic (Clara_nfs.Firewall.ported ~placement:Dev.P_imem ()) trace in
      let s = r.Eng.summary in
      let row name pred act =
        Printf.printf "%-18s %12.0f %12.0f %+7.1f%%
" name pred act (pct_err pred act)
      in
      Printf.printf "%-18s %12s %12s %8s
" "packet type" "predicted" "actual" "err";
      row "tcp (mean)" p.Lat.tcp_mean s.SStats.tcp_mean;
      row "udp (mean)" p.Lat.udp_mean s.SStats.udp_mean;
      row "tcp syn (mean)" p.Lat.syn_mean s.SStats.syn_mean;
      Printf.printf
        "\nThe §3.5 example, reproduced: SYNs (connection setup: miss + insert)\n\
         cost more than established-flow packets; UDP takes the drop path.\n"

(* ------------------------------------------------------------------ *)
(* §3.2: microbenchmark parameter extraction                           *)

let microbench () =
  header "Microbenchmarks: parameter extraction (paper §3.2/§4)";
  let c = Clara.Microbench.calibrate lnic in
  Format.printf "%a" Clara.Microbench.pp_calibration c;
  Printf.printf "\nreference values (§3.2): parse ~150 cyc software / ~40 engine,\n";
  Printf.printf "checksum engine 300 cyc @1000B, metadata 2-5 cyc,\n";
  Printf.printf "EMEM cache 3MB (knee expected between 3MB and 4MB)\n"

(* ------------------------------------------------------------------ *)
(* §3.4 worked example                                                 *)

let mapping_example () =
  header "Mapping example (paper §3.4): NAT on the Netronome-like LNIC";
  let prof = profile () in
  let a = analyze_exn (Clara_nfs.Nat.source ()) prof in
  let report = Clara.Report.build ~rate_pps:prof.W.Profile.rate_pps a in
  Format.printf "%a" Clara.Report.render report

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablations () =
  header "Ablation: ILP mapping vs greedy first-fit";
  let prof = profile () in
  let sizes = Clara.sizes_of_profile prof in
  let prob = Clara.prob_of_profile prof in
  List.iter
    (fun (name, src) ->
      let df = Clara_dataflow.Build.of_source src in
      let ilp = Clara_mapping.Encode.map_nf lnic df ~sizes ~prob in
      let greedy = Clara_mapping.Greedy.map_nf lnic df ~sizes ~prob in
      match (ilp, greedy) with
      | Ok i, Ok g ->
          Printf.printf "%-14s ILP %10.0f cyc   greedy %10.0f cyc   ILP saves %5.1f%%\n" name
            i.Map_.objective_cycles g.Map_.objective_cycles
            (100. *. (g.Map_.objective_cycles -. i.Map_.objective_cycles)
            /. g.Map_.objective_cycles)
      | Error e, _ | _, Error e -> Printf.printf "%-14s error: %s\n" name e)
    [ ("nat", Clara_nfs.Nat.source ());
      ("lpm-10k", Clara_nfs.Lpm.source ~entries:10_000);
      ("firewall", Clara_nfs.Firewall.source ());
      ("vnf-chain", Clara_nfs.Vnf_chain.source ());
      ("heavy-hitter", Clara_nfs.Heavy_hitter.source ()) ];

  header "Ablation: flow cache on/off (LPM, §2.1 'orders of magnitude')";
  let prof10k = profile ~packets:10_000 () in
  List.iter
    (fun entries ->
      let fc = simulate (Clara_nfs.Lpm.ported ~entries ~use_flow_cache:true ()) prof10k ~seed:31L in
      let sw = simulate (Clara_nfs.Lpm.ported ~entries ~use_flow_cache:false ()) prof10k ~seed:31L in
      Printf.printf "%-8d rules: flow cache %8.0f cyc   software %10.0f cyc   %6.1fx\n"
        entries fc sw (sw /. fc))
    [ 1_000; 10_000; 30_000 ];

  header "Ablation: checksum engine vs software (NAT, §2.1)";
  List.iter
    (fun pay ->
      let prof = profile ~packets:5_000 ~payload:(W.Dist.Fixed pay) () in
      let eng = simulate (Clara_nfs.Nat.ported ~checksum_engine:true ()) prof ~seed:31L in
      let sw = simulate (Clara_nfs.Nat.ported ~checksum_engine:false ()) prof ~seed:31L in
      Printf.printf "%5dB payload: engine %8.0f cyc   software %8.0f cyc   +%4.0f cyc\n" pay
        eng sw (sw -. eng))
    [ 200; 1000; 1400 ];

  header "Ablation: cache-locality sensitivity (the model's free parameter)";
  Printf.printf
    "Figure 3a error as the locality discount varies (default 0.85):\n";
  let saved = !Clara_dataflow.Cost.cache_locality in
  let fig3a_err () =
    let prof = profile ~packets:4_000 () in
    let entries = 20_000 in
    let src = Clara_nfs.Lpm.source ~entries in
    let a = analyze_exn ~options:fig3a_options src prof in
    let placement =
      Option.value ~default:Dev.P_emem (Clara.device_placement_of_state a "routes")
    in
    let prog = Clara_nfs.Lpm.ported ~entries ~use_flow_cache:false ~placement () in
    let trace = W.Trace.synthesize ~seed:31L prof in
    let predicted = (Clara.predict a trace).Lat.mean_cycles in
    let actual = (Eng.run lnic prog trace).Eng.summary.SStats.mean_cycles in
    pct_err predicted actual
  in
  List.iter
    (fun loc ->
      Clara_dataflow.Cost.cache_locality := loc;
      Printf.printf "  locality %.2f -> LPM-20k error %+6.1f%%\n" loc (fig3a_err ()))
    [ 0.5; 0.7; 0.85; 0.95; 1.0 ];
  Clara_dataflow.Cost.cache_locality := saved;

  header "Ablation: predicted gain of accelerators (mapping objective)";
  let prof = profile () in
  List.iter
    (fun (name, src) ->
      let with_acc = analyze_exn src prof in
      let without = analyze_exn ~options:no_accels src prof in
      Printf.printf "%-14s with accels %10.0f cyc   without %10.0f cyc   %5.1fx\n" name
        with_acc.Clara.mapping.Map_.objective_cycles
        without.Clara.mapping.Map_.objective_cycles
        (without.Clara.mapping.Map_.objective_cycles
        /. with_acc.Clara.mapping.Map_.objective_cycles))
    [ ("nat", Clara_nfs.Nat.source ()); ("lpm-10k", Clara_nfs.Lpm.source ~entries:10_000) ]

(* ------------------------------------------------------------------ *)
(* ILP solver microbenchmarks                                          *)

let ilp_bench () =
  header "ILP solver: pivots / iterations / warm starts per model";
  let reg = Clara_obs.Registry.default in
  let keys =
    [ "ilp.simplex.pivots"; "ilp.simplex.iterations"; "ilp.simplex.warm_starts";
      "ilp.bb.nodes"; "ilp.bb.best_bound_prunes" ]
  in
  let snap () = List.map (fun k -> (k, Clara_obs.Registry.counter_value reg k)) keys in
  let run name f =
    let before = snap () in
    f ();
    let d = List.map2 (fun (k, b) (_, a) -> (k, a - b)) before (snap ()) in
    let get k = List.assoc k d in
    Printf.printf "%-16s pivots %5d  iters %5d  warm %4d  nodes %4d  bb-prunes %4d\n"
      name
      (get "ilp.simplex.pivots")
      (get "ilp.simplex.iterations")
      (get "ilp.simplex.warm_starts")
      (get "ilp.bb.nodes")
      (get "ilp.bb.best_bound_prunes")
  in
  let prof = profile () in
  let sizes = Clara.sizes_of_profile prof in
  let prob = Clara.prob_of_profile prof in
  List.iter
    (fun (name, src) ->
      run name (fun () ->
          ignore
            (Clara_mapping.Encode.map_nf lnic
               (Clara_dataflow.Build.of_source src)
               ~sizes ~prob)))
    [ ("nat", Clara_nfs.Nat.source ());
      ("lpm-10k", Clara_nfs.Lpm.source ~entries:10_000);
      ("firewall", Clara_nfs.Firewall.source ());
      ("vnf-chain", Clara_nfs.Vnf_chain.source ());
      ("heavy-hitter", Clara_nfs.Heavy_hitter.source ()) ];
  (* The mapping models above mostly solve at the root; a deliberately
     fractional covering model branches at every node, so the
     warm-started dual simplex and best-bound pruning do real work. *)
  run "branchy-cover" (fun () ->
      let module M = Clara_ilp.Model in
      let module LE = Clara_ilp.Lin_expr in
      let module R = Clara_ilp.Rat in
      let m = M.create () in
      let xs = List.init 14 (fun _ -> M.add_var m M.Binary) in
      M.add_constraint m
        (LE.sum (List.map (fun x -> LE.var ~coeff:(R.of_int 2) x) xs))
        M.Le (R.of_int 13);
      M.set_objective m M.Maximize (LE.sum (List.map LE.var xs));
      ignore (Clara_ilp.Branch_bound.solve m));
  (* A knapsack with spread-out profit densities: early dives find good
     incumbents whose objective closes later subtrees by best bound. *)
  run "knapsack-18" (fun () ->
      let module M = Clara_ilp.Model in
      let module LE = Clara_ilp.Lin_expr in
      let module R = Clara_ilp.Rat in
      let m = M.create () in
      let n = 18 in
      let value j = ((3 * j) mod 11) + 2 and weight j = ((5 * j) mod 7) + 3 in
      let xs = List.init n (fun _ -> M.add_var m M.Binary) in
      M.add_constraint m
        (LE.sum (List.mapi (fun j x -> LE.var ~coeff:(R.of_int (weight j)) x) xs))
        M.Le
        (R.of_int (List.fold_left ( + ) 0 (List.init n weight) / 3));
      M.set_objective m M.Maximize
        (LE.sum (List.mapi (fun j x -> LE.var ~coeff:(R.of_int (value j)) x) xs));
      ignore (Clara_ilp.Branch_bound.solve m))

(* ------------------------------------------------------------------ *)
(* Interference (§3.5)                                                 *)

let interference () =
  header "Interference: co-resident NFs on sliced LNIC halves (§3.5)";
  (* Meaningful rate + large EMEM-resident state on both sides so the
     cache cross-term and accelerator head-of-line blocking bite, while
     the combined load stays below the NIC's DMA capacity (~2 Mpps) —
     beyond it the co-resident system simply saturates. *)
  let prof = profile ~packets:8_000 ~rate:500_000. () in
  (match
     Clara.Interference.analyze_n lnic
       ~sources:
         [| Clara_nfs.Firewall.source ~entries:1_000_000 (); Clara_nfs.Kv_store.source () |]
       ~profiles:[| prof; prof |]
   with
  | Error e -> Printf.printf "error: %s\n" e
  | Ok reports ->
      let pr name (r : Clara.Interference.report) =
        Printf.printf
          "%-10s solo %9.0f cyc   half-slice %9.0f cyc   contended %9.0f cyc   slowdown %.2fx\n"
          name r.Clara.Interference.solo_cycles
          r.Clara.Interference.sliced_cycles
          r.Clara.Interference.contended_cycles
          r.Clara.Interference.slowdown
      in
      Array.iter2 pr [| "firewall"; "kv-store" |] reports);
  (* Validate against genuine co-resident simulation: both ports share
     one simulator (caches, flow cache, accelerators, DMA lanes). *)
  let prog_a = Clara_nfs.Firewall.ported ~entries:1_000_000 ~placement:Dev.P_emem () in
  let prog_b = Clara_nfs.Kv_store.ported ~placement:Dev.P_emem () in
  let tr_a = W.Trace.synthesize ~seed:31L prof in
  let tr_b = W.Trace.synthesize ~seed:57L prof in
  let solo_a = Eng.run lnic prog_a tr_a in
  let solo_b = Eng.run lnic prog_b tr_b in
  let co = Eng.run_tenants lnic [| prog_a; prog_b |] [| tr_a; tr_b |] in
  let pr name (solo : Eng.result) (co : Eng.result) =
    Printf.printf
      "%-10s simulated solo %9.0f cyc   co-resident %9.0f cyc   slowdown %.2fx\n" name
      solo.Eng.summary.SStats.mean_cycles co.Eng.summary.SStats.mean_cycles
      (co.Eng.summary.SStats.mean_cycles /. solo.Eng.summary.SStats.mean_cycles)
  in
  Printf.printf "\n";
  pr "firewall" solo_a co.(0);
  pr "kv-store" solo_b co.(1)

(* ------------------------------------------------------------------ *)
(* NIC selection (§1/§6 use case)                                      *)

let nic_selection () =
  header "NIC selection: same NF + workload, three SmartNIC targets";
  let prof = profile () in
  let targets =
    [ ("netronome-like", lnic); ("arm-soc-like", L.Soc_nic.default);
      ("asic-pipeline", L.Asic_nic.default) ]
  in
  List.iter
    (fun (name, src) ->
      Printf.printf "%s:\n" name;
      List.iter
        (fun (tname, target) ->
          match Clara.analyze_for_profile target ~source:src ~profile:prof with
          | Error e -> Printf.printf "  %-16s error: %s\n" tname e
          | Ok a ->
              let p = Clara.predict_profile a prof in
              let tp =
                Clara_predict.Throughput.estimate ~sizes:a.Clara.sizes ~prob:a.Clara.prob
                  target a.Clara.df a.Clara.mapping
              in
              let freq = L.Graph.freq_mhz target in
              Printf.printf "  %-16s latency %8.0f cyc (%6.1f us)   tput %10.0f pps\n" tname
                p.Lat.mean_cycles
                (p.Lat.mean_cycles /. float_of_int freq)
                tp.Clara_predict.Throughput.max_pps)
        targets)
    [ ("lpm-20k (table-heavy)", Clara_nfs.Lpm.source ~entries:20_000);
      ("dpi (compute-heavy)", Clara_nfs.Dpi.source) ]

(* ------------------------------------------------------------------ *)
(* Throughput validation: predicted capacity vs simulator saturation    *)

let throughput_validation () =
  header "Throughput: predicted capacity vs simulated saturation point";
  Printf.printf
    "Predicted max pps is the bottleneck model (§3.5); measured is the lowest
     offered rate where the simulator drops >1%% or p50 latency doubles.

";
  let prof_at rate = profile ~packets:12_000 ~rate () in
  List.iter
    (fun (name, src, prog) ->
      match Clara.analyze_for_profile lnic ~source:src ~profile:(prof_at 60_000.) with
      | Error e -> Printf.printf "%-12s error: %s
" name e
      | Ok a ->
          let tp =
            Clara_predict.Throughput.estimate ~sizes:a.Clara.sizes ~prob:a.Clara.prob lnic
              a.Clara.df a.Clara.mapping
          in
          let base =
            (Eng.run lnic prog (W.Trace.synthesize ~seed:31L (prof_at 30_000.)))
              .Eng.summary.SStats.p50_cycles
          in
          (* Geometric sweep for the saturation knee. *)
          let rec sweep rate =
            if rate > 6.4e6 then None
            else begin
              let r = Eng.run lnic prog (W.Trace.synthesize ~seed:31L (prof_at rate)) in
              let drops =
                float_of_int r.Eng.summary.SStats.drops
                /. float_of_int (max 1 (r.Eng.summary.SStats.packets + r.Eng.summary.SStats.drops))
              in
              if drops > 0.01 || r.Eng.summary.SStats.p50_cycles > 2 * base then Some rate
              else sweep (rate *. 1.4)
            end
          in
          (match sweep 100_000. with
          | Some measured ->
              Printf.printf "%-12s predicted %10.0f pps   measured knee ~%10.0f pps   ratio %.2f
"
                name tp.Clara_predict.Throughput.max_pps measured
                (tp.Clara_predict.Throughput.max_pps /. measured)
          | None ->
              Printf.printf "%-12s predicted %10.0f pps   no saturation below 6.4 Mpps
" name
                tp.Clara_predict.Throughput.max_pps))
    [ ("nat", Clara_nfs.Nat.source (), Clara_nfs.Nat.ported ~checksum_engine:true ());
      ("tunnel-gw", Clara_nfs.Tunnel_gw.source (), Clara_nfs.Tunnel_gw.ported ());
      ("dpi", Clara_nfs.Dpi.source, Clara_nfs.Dpi.ported ()) ]

(* ------------------------------------------------------------------ *)
(* Load-latency curve: M/M/k queueing prediction vs simulation          *)

let load_latency () =
  header "Load-latency curve (NAT): M/M/k prediction vs simulation (§6 queueing)";
  Printf.printf "%-12s %14s %14s
" "rate (pps)" "predicted" "simulated";
  let src = Clara_nfs.Nat.source () in
  let prog = Clara_nfs.Nat.ported ~checksum_engine:true () in
  let base_prof = profile ~packets:12_000 ~rate:30_000. () in
  match Clara.analyze_for_profile lnic ~source:src ~profile:base_prof with
  | Error e -> Printf.printf "error: %s
" e
  | Ok a ->
      let base =
        (Clara.predict a (W.Trace.synthesize ~seed:31L base_prof)).Lat.mean_cycles
      in
      List.iter
        (fun rate ->
          let predicted =
            Clara_predict.Throughput.latency_at_rate ~sizes:a.Clara.sizes
              ~prob:a.Clara.prob ~base_cycles:base ~rate_pps:rate lnic a.Clara.df
              a.Clara.mapping
          in
          let prof = profile ~packets:12_000 ~rate () in
          let sim =
            (Eng.run lnic prog (W.Trace.synthesize ~seed:31L prof))
              .Eng.summary.SStats.mean_cycles
          in
          match predicted with
          | Some p -> Printf.printf "%-12.0f %14.0f %14.0f
" rate p sim
          | None -> Printf.printf "%-12.0f %14s %14.0f
" rate "unstable" sim)
        [ 100_000.; 500_000.; 1_000_000.; 1_500_000.; 1_800_000.; 1_950_000.; 2_200_000. ]

(* ------------------------------------------------------------------ *)
(* Service chains                                                      *)

let chains () =
  header "Service chains: per-stage vs end-to-end prediction";
  let prof = profile ~packets:8_000 () in
  let trace = W.Trace.synthesize ~seed:31L prof in
  let sources =
    [ ("firewall", Clara_nfs.Firewall.source ());
      ("nat", Clara_nfs.Nat.source ());
      ("tunnel-gw", Clara_nfs.Tunnel_gw.source ()) ]
  in
  List.iter
    (fun (name, src) ->
      match Clara.analyze_for_profile lnic ~source:src ~profile:prof with
      | Ok a ->
          Printf.printf "  %-12s standalone %8.0f cyc
" name
            (Clara.predict a trace).Lat.mean_cycles
      | Error e -> Printf.printf "  %-12s error: %s
" name e)
    sources;
  match Clara.Chain.analyze lnic ~sources:(List.map snd sources) ~profile:prof with
  | Error e -> Printf.printf "chain error: %s
" e
  | Ok c ->
      let p = Clara.Chain.predict c trace in
      Printf.printf "  %-12s end-to-end %8.0f cyc (emit %.0f%%, p99 %.0f)
" "chain"
        p.Lat.mean_cycles
        (100. *. p.Lat.emitted_fraction)
        p.Lat.p99_cycles

(* ------------------------------------------------------------------ *)
(* Energy (§6 future work)                                             *)

let energy () =
  header "Energy prediction (paper §6 / E3): per-packet energy by target";
  let prof = profile () in
  Printf.printf "%-14s %16s %16s %12s
" "nf" "netronome (nJ)" "x86 host (nJ)" "NIC wins?";
  List.iter
    (fun (name, src) ->
      let nj target =
        match Clara.analyze_for_profile target ~source:src ~profile:prof with
        | Error _ -> Float.nan
        | Ok a ->
            (Clara_predict.Energy.estimate ~sizes:a.Clara.sizes ~prob:a.Clara.prob
               ~rate_pps:prof.W.Profile.rate_pps target a.Clara.df a.Clara.mapping)
              .Clara_predict.Energy.nj_per_packet
      in
      let nic = nj lnic and host = nj L.Host.default in
      Printf.printf "%-14s %16.0f %16.0f %12s
" name nic host
        (if nic < host then "yes" else "no"))
    [ ("nat", Clara_nfs.Nat.source ());
      ("firewall", Clara_nfs.Firewall.source ());
      ("dpi", Clara_nfs.Dpi.source);
      ("telemetry", Clara_nfs.Telemetry.source ());
      ("ipsec-gw", Clara_nfs.Ipsec_gw.source ()) ]

(* ------------------------------------------------------------------ *)
(* Partial offloading (§6 future work)                                 *)

let partial () =
  header "Partial offloading (paper §6): best NIC/host split per NF";
  let prof = profile () in
  Printf.printf "%-14s %-46s %10s
" "nf" "best split" "total";
  List.iter
    (fun (name, src) ->
      match Clara.analyze_for_profile lnic ~source:src ~profile:prof with
      | Error e -> Printf.printf "%-14s error: %s
" name e
      | Ok a ->
          let s =
            Clara_predict.Partial.best_split ~sizes:a.Clara.sizes ~prob:a.Clara.prob lnic
              a.Clara.df a.Clara.mapping
          in
          Printf.printf "%-14s %-46s %8.0f ns
" name
            (Clara_predict.Partial.describe a.Clara.df s)
            s.Clara_predict.Partial.total_ns)
    [ ("nat", Clara_nfs.Nat.source ());
      ("lpm-20k", Clara_nfs.Lpm.source ~entries:20_000);
      ("dpi", Clara_nfs.Dpi.source);
      ("vnf-chain", Clara_nfs.Vnf_chain.source ());
      ("kv-store", Clara_nfs.Kv_store.source ());
      ("syn-proxy", Clara_nfs.Syn_proxy.source ());
      ("telemetry", Clara_nfs.Telemetry.source ()) ]

(* ------------------------------------------------------------------ *)
(* NF zoo: predicted vs actual across the whole corpus                 *)

let zoo () =
  header "NF zoo: predicted vs simulated mean latency across the corpus";
  let prof = profile ~packets:8_000 () in
  Printf.printf "%-16s %12s %12s %8s
" "nf" "predicted" "actual" "err";
  let errs = ref [] in
  List.iter
    (fun (name, src, prog) ->
      match Clara.analyze_for_profile lnic ~source:src ~profile:prof with
      | Error e -> Printf.printf "%-16s error: %s
" name e
      | Ok a ->
          let trace = W.Trace.synthesize ~seed:31L prof in
          let predicted = (Clara.predict a trace).Lat.mean_cycles in
          let actual = (Eng.run lnic prog trace).Eng.summary.SStats.mean_cycles in
          errs := Float.abs (pct_err predicted actual) :: !errs;
          Printf.printf "%-16s %12.0f %12.0f %+7.1f%%
" name predicted actual
            (pct_err predicted actual))
    [ ("nat", Clara_nfs.Nat.source (), Clara_nfs.Nat.ported ~checksum_engine:true ());
      ("firewall", Clara_nfs.Firewall.source (), Clara_nfs.Firewall.ported ~placement:Dev.P_imem ());
      ("dpi", Clara_nfs.Dpi.source, Clara_nfs.Dpi.ported ());
      ("heavy-hitter", Clara_nfs.Heavy_hitter.source (), Clara_nfs.Heavy_hitter.ported ());
      ("vnf-chain", Clara_nfs.Vnf_chain.source (), Clara_nfs.Vnf_chain.ported ());
      ("kv-store", Clara_nfs.Kv_store.source (), Clara_nfs.Kv_store.ported ());
      ("load-balancer", Clara_nfs.Load_balancer.source (), Clara_nfs.Load_balancer.ported ());
      ("syn-proxy", Clara_nfs.Syn_proxy.source (), Clara_nfs.Syn_proxy.ported ());
      ("ipsec-gw", Clara_nfs.Ipsec_gw.source (), Clara_nfs.Ipsec_gw.ported ());
      ("telemetry", Clara_nfs.Telemetry.source (), Clara_nfs.Telemetry.ported ());
      ("tunnel-gw", Clara_nfs.Tunnel_gw.source (), Clara_nfs.Tunnel_gw.ported ()) ];
  let n = List.length !errs in
  if n > 0 then
    Printf.printf "mean |err| across the zoo: %.1f%%
"
      (List.fold_left ( +. ) 0. !errs /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Sweep: parallel design-space exploration with the result cache      *)

let sweep_bench () =
  header "Sweep: lib/explore parallel exploration + result cache";
  let module E = Clara_explore in
  let nfs =
    List.filter_map
      (fun n ->
        Clara_nfs.Corpus.find n
        |> Option.map (fun e -> (n, e.Clara_nfs.Corpus.source)))
      [ "nat"; "lpm"; "firewall"; "heavy-hitter" ]
  in
  let workloads =
    List.map
      (fun rate ->
        ( Printf.sprintf "r%g" rate,
          W.Profile.make ~payload:(W.Dist.Fixed 300) ~packets:2_000
            ~flow_count:5_000 ~rate_pps:rate () ))
      [ 60_000.; 1_000_000. ]
  in
  let spec =
    E.Spec.make ~name:"bench-sweep" ~seed:42 ~nfs
      ~nics:[ "netronome"; "soc"; "asic" ]
      ~opts:[ ("default", Map_.default_options) ]
      ~workloads ()
  in
  let cells = List.length spec.E.Spec.cells in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "spec: 4 NFs x 3 NICs x 2 rates = %d cells, 2000 packets each\n" cells;
  Printf.printf "host: %d usable core%s%s\n\n" cores (if cores = 1 then "" else "s")
    (if cores < 2 then
       " — multi-domain wall-clock CANNOT beat 1 domain here (OCaml's \
        stop-the-world minor GC makes oversubscribed domains strictly slower); \
        run on a multicore host to see the parallel speedup"
     else "");
  let rec rm_rf path =
    match Sys.is_directory path with
    | true ->
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  let fresh_dir suffix =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "clara-bench-sweep-%d-%s" (Unix.getpid ()) suffix)
    in
    rm_rf d;
    d
  in
  let dir1 = fresh_dir "1dom" and dir4 = fresh_dir "4dom" in
  let run ~domains ~dir =
    E.Sweep.run ~domains ~cache:(E.Cache.create ~dir) spec
  in
  let wall (r : E.Sweep.report) = float_of_int r.E.Sweep.stats.E.Sweep.wall_ns /. 1e9 in
  let r1 = run ~domains:1 ~dir:dir1 in
  Printf.printf "cold, 1 domain:   wall %6.2f s  (%d ok, %d failed)\n" (wall r1)
    (r1.E.Sweep.stats.E.Sweep.cells - r1.E.Sweep.stats.E.Sweep.failed)
    r1.E.Sweep.stats.E.Sweep.failed;
  let par = if cores >= 2 then min 4 cores else 4 in
  let r4 = run ~domains:par ~dir:dir4 in
  Printf.printf "cold, %d domains:  wall %6.2f s  utilization %3.0f%%  speedup %.2fx\n"
    par (wall r4)
    (100. *. r4.E.Sweep.stats.E.Sweep.utilization)
    (wall r1 /. wall r4);
  let rw = run ~domains:par ~dir:dir4 in
  Printf.printf "warm, %d domains:  wall %6.2f s  cache %d hit / %d miss (%.0f%% hits)\n" par
    (wall rw) rw.E.Sweep.stats.E.Sweep.cache_hits rw.E.Sweep.stats.E.Sweep.cache_misses
    (100.
    *. float_of_int rw.E.Sweep.stats.E.Sweep.cache_hits
    /. float_of_int rw.E.Sweep.stats.E.Sweep.cells);
  let j1 = Clara_util.Json.to_string (E.Sweep.to_json r1) in
  let j4 = Clara_util.Json.to_string (E.Sweep.to_json r4) in
  let jw = Clara_util.Json.to_string (E.Sweep.to_json rw) in
  Printf.printf "report determinism: 1-dom == %d-dom: %b, cold == warm: %b\n" par
    (String.equal j1 j4) (String.equal j4 jw);
  csv_out "sweep"
    [ "domains"; "wall_s"; "hits" ]
    [ [ 1.; wall r1; 0. ]; [ float_of_int par; wall r4; 0. ];
      [ float_of_int par; wall rw;
        float_of_int rw.E.Sweep.stats.E.Sweep.cache_hits ] ];
  rm_rf dir1;
  rm_rf dir4

(* ------------------------------------------------------------------ *)
(* Trace guard: tracing must not perturb simulation results            *)

let trace_guard () =
  header "Trace guard: sink off vs on must be byte-identical";
  Printf.printf
    "Runs the same NF + workload with the trace sink disabled and enabled;\n\
     any divergence in the latency summary means instrumentation leaked\n\
     into simulation semantics.  Also reports the tracing overhead.\n\n";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  List.iter
    (fun (name, prog, prof) ->
      let trace = W.Trace.synthesize ~seed:31L prof in
      (* Warm-up run so neither timed run pays one-time costs. *)
      ignore (Eng.run lnic prog trace);
      let r_off, t_off = time (fun () -> Eng.run lnic prog trace) in
      let sink = Clara_nicsim.Trace.create () in
      let r_on, t_on = time (fun () -> Eng.run lnic prog ~sink trace) in
      (* [compare] (not [=]) so NaN hit rates on cache-free NFs compare
         equal instead of poisoning the check. *)
      if compare r_off.Eng.summary r_on.Eng.summary <> 0 then
        failwith (name ^ ": latency summary differs with tracing on");
      if compare r_off.Eng.emem_hit_rate r_on.Eng.emem_hit_rate <> 0 then
        failwith (name ^ ": emem hit rate differs with tracing on");
      if compare r_off.Eng.flow_cache_hit_rate r_on.Eng.flow_cache_hit_rate <> 0
      then failwith (name ^ ": flow cache hit rate differs with tracing on");
      if Clara_nicsim.Trace.total sink = 0 then
        failwith (name ^ ": sink recorded no events");
      Printf.printf
        "%-14s identical results; %8d events   off %6.1f ms   on %6.1f ms   overhead %.2fx\n"
        name
        (Clara_nicsim.Trace.total sink)
        (1e3 *. t_off) (1e3 *. t_on)
        (t_on /. t_off))
    [ ("nat", Clara_nfs.Nat.ported ~checksum_engine:true (), profile ~packets:10_000 ());
      ("lpm-4k", Clara_nfs.Lpm.ported ~entries:4_000 ~use_flow_cache:true (), profile ~packets:10_000 ());
      ( "firewall-hot",
        Clara_nfs.Firewall.ported ~entries:8192 ~placement:Dev.P_imem (),
        profile ~packets:10_000 ~rate:1_500_000. () ) ]

(* ------------------------------------------------------------------ *)
(* Lint: the static-analysis suite over the whole corpus               *)

let lint_bench () =
  header "Lint: analysis suite over the corpus (budget: 100 ms per sweep)";
  Printf.printf
    "Runs all four passes (sharing, feasibility, paths, cost) on every\n\
     corpus NF against two targets; per-pass counters land in the lib/obs\n\
     registry (analysis.*).  A sweep over the mean budget fails the bench.\n\n";
  let targets = [ ("netronome", lnic); ("asic", L.Asic_nic.default) ] in
  let cirs =
    List.map
      (fun (e : Clara_nfs.Corpus.entry) ->
        ( e.Clara_nfs.Corpus.name,
          fst (Clara_cir.Patterns.run (Clara_cir.Lower.lower_source e.Clara_nfs.Corpus.source)) ))
      Clara_nfs.Corpus.all
  in
  let sweep () =
    List.fold_left
      (fun acc (_, ir) ->
        List.fold_left
          (fun acc (_, target) ->
            let r = Clara_analysis.Suite.run ~lnic:target ir in
            acc + List.length r.Clara_analysis.Suite.diagnostics)
          acc targets)
      0 cirs
  in
  ignore (sweep ());
  (* warm-up *)
  let iters = 20 in
  let t0 = Unix.gettimeofday () in
  let diags = ref 0 in
  for _ = 1 to iters do
    diags := sweep ()
  done;
  let per_sweep_ms = 1e3 *. (Unix.gettimeofday () -. t0) /. float_of_int iters in
  Printf.printf
    "%d NFs x %d targets: %d diagnostics per sweep, %.2f ms per sweep (%d runs)\n"
    (List.length cirs) (List.length targets) !diags per_sweep_ms iters;
  let budget_ms = 100. in
  if per_sweep_ms > budget_ms then
    failwith
      (Printf.sprintf "lint bench over budget: %.2f ms > %.0f ms per sweep"
         per_sweep_ms budget_ms);
  let reg = Clara_obs.Registry.default in
  List.iter
    (fun key ->
      Printf.printf "  %-28s %d\n" key (Clara_obs.Registry.counter_value reg key))
    [ "analysis.runs"; "analysis.errors"; "analysis.warnings"; "analysis.infos";
      "analysis.diags.sharing"; "analysis.diags.feasibility";
      "analysis.diags.paths"; "analysis.diags.cost" ]

(* ------------------------------------------------------------------ *)
(* bounds: static interval soundness gate + SLO-pruned sweep           *)

let bounds_bench () =
  header "Bounds: static latency intervals vs simulation (soundness gate)";
  Printf.printf
    "For every example NF on every target, the interval abstract\n\
     interpretation's per-type [lower, upper] cycle bounds must contain\n\
     the simulated per-type mean latency (2000 packets, 300 B payload,\n\
     60 kpps, seed 42).  Also enforces a %.0f ms per-NF analysis budget\n\
     and finite upper bounds for loop-free / derivable-trip NFs, and\n\
     demonstrates the bounds as a pre-simulation SLO pruning predicate\n\
     on the standard sweep grid.\n\n"
    100.;
  let module B = Clara_analysis.Bounds in
  let module I = Clara_analysis.Interval in
  let module Att = Clara_nicsim.Attribution in
  let example_nfs = [ "nat"; "lpm"; "firewall"; "dpi"; "syn-proxy" ] in
  let targets =
    [ ("netronome", L.Netronome.default);
      ("soc", L.Soc_nic.default);
      ("bluefield", L.Bluefield.default) ]
  in
  let budget_ms = 100. in
  List.iter
    (fun nf ->
      let entry =
        match Clara_nfs.Corpus.find nf with
        | Some e -> e
        | None -> failwith ("bounds: unknown corpus NF " ^ nf)
      in
      let ir =
        fst
          (Clara_cir.Patterns.run
             (Clara_cir.Lower.lower_source entry.Clara_nfs.Corpus.source))
      in
      List.iter
        (fun (nic_name, nic) ->
          let t0 = Unix.gettimeofday () in
          let b = B.analyze ~lnic:nic ir in
          let ms = 1e3 *. (Unix.gettimeofday () -. t0) in
          if ms > budget_ms then
            failwith
              (Printf.sprintf "bounds: %s@%s analysis took %.1f ms > %.0f ms"
                 nf nic_name ms budget_ms);
          (* Finite ceilings: these NFs have no loop without a derivable
             trip bound, so an infinite upper bound is an analysis bug. *)
          List.iter
            (fun (row : B.type_bounds) ->
              if not (I.is_finite row.B.tb_total) then
                failwith
                  (Printf.sprintf "bounds: %s@%s type %s has a non-finite bound"
                     nf nic_name row.B.tb_type))
            b.B.bt_per_type;
          (* Soundness: simulate and check every attributed per-type mean
             falls inside the static interval. *)
          let prof =
            W.Profile.make ~payload:(W.Dist.Fixed 300) ~packets:2_000
              ~flow_count:2_000 ~rate_pps:60_000. ~tcp_fraction:0.8 ()
          in
          let trace = W.Trace.synthesize ~seed:42L prof in
          let sink = Clara_nicsim.Trace.create ~limit:(2_000 * 64) () in
          let all = Option.get (B.find b "all") in
          match Eng.run ~sink nic entry.Clara_nfs.Corpus.ported trace with
          (* A ported device can require hardware a target lacks (e.g.
             lpm's flow cache on the soc): nothing to gate against. *)
          | exception Invalid_argument reason ->
              Printf.printf
                "%-10s %-10s %4.1f ms  sim n/a (%s)  all: [%.0f, %.0f] cycles\n"
                nf nic_name ms reason
                (I.lo all.B.tb_total) (I.hi all.B.tb_total)
          | _ ->
              let rep = Att.analyze sink in
              let checked = ref 0 in
              List.iter
                (fun (row : Att.row) ->
                  if row.Att.r_prog = 0 && row.Att.r_count > 0 then
                    match B.find b row.Att.r_type with
                    | None -> ()
                    | Some sb ->
                        incr checked;
                        let lo = I.lo sb.B.tb_total
                        and hi = I.hi sb.B.tb_total in
                        if row.Att.r_total < lo || row.Att.r_total > hi then
                          failwith
                            (Printf.sprintf
                               "bounds UNSOUND: %s@%s type %-7s sim mean %.0f \
                                outside static [%.0f, %.0f]"
                               nf nic_name row.Att.r_type row.Att.r_total lo hi))
                rep.Att.rows;
              if !checked = 0 then
                failwith
                  (Printf.sprintf
                     "bounds: %s@%s simulator attributed no packets" nf nic_name);
              Printf.printf
                "%-10s %-10s %4.1f ms  %d type rows inside  all: [%.0f, %.0f] cycles\n"
                nf nic_name ms !checked
                (I.lo all.B.tb_total) (I.hi all.B.tb_total))
        targets)
    example_nfs;
  (* SLO pruning on the standard sweep grid: cells whose static latency
     lower bound already exceeds the SLO are closed before simulation. *)
  let module E = Clara_explore in
  let nfs =
    List.filter_map
      (fun n ->
        Clara_nfs.Corpus.find n
        |> Option.map (fun e -> (n, e.Clara_nfs.Corpus.source)))
      [ "nat"; "lpm"; "firewall"; "heavy-hitter" ]
  in
  let workloads =
    List.map
      (fun rate ->
        ( Printf.sprintf "r%g" rate,
          W.Profile.make ~payload:(W.Dist.Fixed 300) ~packets:2_000
            ~flow_count:5_000 ~rate_pps:rate () ))
      [ 60_000.; 1_000_000. ]
  in
  let spec =
    E.Spec.make ~name:"bench-bounds-slo" ~seed:42 ~nfs
      ~nics:[ "netronome"; "soc"; "asic" ]
      ~opts:[ ("default", Map_.default_options) ]
      ~workloads ()
  in
  let slo = 1.0 in
  let r = E.Sweep.run ~domains:1 ?slo_p99_us:(Some slo) spec in
  let s = r.E.Sweep.stats in
  Printf.printf
    "\nsweep with --slo-p99-us %.1f: %d cells, %d pruned before simulation, \
     %d computed\n"
    slo s.E.Sweep.cells s.E.Sweep.pruned
    (s.E.Sweep.cells - s.E.Sweep.pruned - s.E.Sweep.failed);
  if s.E.Sweep.pruned < 1 then
    failwith "bounds: SLO pruning closed no cell on the standard grid";
  if s.E.Sweep.pruned >= s.E.Sweep.cells then
    failwith "bounds: SLO pruning closed every cell (predicate too eager)"

(* ------------------------------------------------------------------ *)
(* nicsim: event-path and sharded throughput, telemetry guard          *)

let nicsim_bench () =
  header "nicsim: event-path + domain-parallel throughput";
  Printf.printf
    "Every run executes each packet's handler on the event path.  This\n\
     section enforces 1-domain == N-domain determinism for sharded runs and\n\
     byte-identical results with a telemetry collector installed, then\n\
     snapshots packets/sec: dpi and nat on one domain, dpi on 4 shards.\n\
     CLARA_BENCH_ENFORCE=1 additionally fails the bench when any of them\n\
     regresses more than 20%% against the committed BENCH_nicsim.json, or\n\
     when the collector costs more than 2%%.\n\n";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let packets = 60_000 in
  let prof = profile ~packets ~flows:500 () in
  let trace = W.Trace.synthesize ~seed:31L prof in
  (* One warm-up run pays the one-time costs; the row is the median of
     three timed runs. *)
  let rows =
    List.map
      (fun (name, prog) ->
        ignore (Eng.run lnic prog trace);
        let run_pps () = float_of_int packets /. snd (time (fun () -> Eng.run lnic prog trace)) in
        let pps = median (List.init 3 (fun _ -> run_pps ())) in
        Printf.printf "%-10s event path %9.0f pps\n" name pps;
        (name, pps))
      [ ("dpi", Clara_nfs.Dpi.ported ()); ("nat", Clara_nfs.Nat.ported ~checksum_engine:true ()) ]
  in
  (* Sharded runs: for a fixed shard count, results must be
     byte-identical across domain counts. *)
  let cores = Domain.recommended_domain_count () in
  let par = if cores >= 2 then min 4 cores else 4 in
  let shard_pps =
    let prog = Clara_nfs.Dpi.ported () in
    let r1 = Eng.run_sharded ~domains:1 ~shards:4 lnic prog trace in
    let rn, t_n = time (fun () -> Eng.run_sharded ~domains:par ~shards:4 lnic prog trace) in
    let j1 = Clara_util.Json.to_string (Eng.result_to_json r1) in
    let jn = Clara_util.Json.to_string (Eng.result_to_json rn) in
    if not (String.equal j1 jn) then
      failwith "sharded run: 1-domain and N-domain results differ";
    let pps = float_of_int packets /. t_n in
    Printf.printf
      "%-10s sharded determinism: 1-dom == %d-dom (shards 4); %9.0f pps on %d domains\n"
      "dpi" par pps par;
    pps
  in
  (* --metrics guard: a telemetry collector on the event path must not
     perturb results (byte-identical result JSON) and must stay cheap
     (>2% throughput overhead warns; fails under enforce).  One timed
     pair of ~50 ms runs swings by tens of percent on a shared host, so
     the budget applies to the median overhead of off/on pairs taken in
     alternating order. *)
  (let prog = Clara_nfs.Nat.ported ~checksum_engine:true () in
   ignore (Eng.run lnic prog trace);
   (* warm-up *)
   let pairs = 7 in
   let timings =
     List.init pairs (fun i ->
         (* Odd pairs run the collector first, so neither side always
            inherits the other's garbage. *)
         let off () = time (fun () -> Eng.run lnic prog trace) in
         let tel = Clara_nicsim.Telemetry.create () in
         let on () = time (fun () -> Eng.run lnic prog ~metrics:tel trace) in
         let (r_off, t_off), (r_on, t_on) =
           if i land 1 = 0 then
             let o = off () in
             (o, on ())
           else
             let o = on () in
             (off (), o)
         in
         let j_off = Clara_util.Json.to_string (Eng.result_to_json r_off) in
         let j_on = Clara_util.Json.to_string (Eng.result_to_json r_on) in
         if not (String.equal j_off j_on) then
           failwith "metrics: results differ with telemetry enabled";
         if Clara_nicsim.Telemetry.series tel = [] then
           failwith "metrics: collector recorded no series";
         (t_off, t_on))
   in
   let t_off = median (List.map fst timings) and t_on = median (List.map snd timings) in
   let overhead = median (List.map (fun (off, on) -> 100. *. (on -. off) /. off) timings) in
   Printf.printf
     "%-10s telemetry: identical results; off %6.1f ms   on %6.1f ms   overhead %+5.1f%% \
      (medians of %d alternating pairs)\n"
     "nat" (1e3 *. t_off) (1e3 *. t_on) overhead pairs;
   if overhead > 2. then
     soft_fail (Printf.sprintf "telemetry overhead %.1f%% exceeds the 2%% budget" overhead));
  (* Snapshot + regression gate.  The committed BENCH_nicsim.json is the
     baseline; CLARA_BENCH_JSON redirects the new snapshot (CI does this
     to keep the tree clean). *)
  let gate what ~now ~old =
    match old with
    | Some old when now < 0.8 *. old ->
        soft_fail
          (Printf.sprintf "%s throughput regressed: %.0f pps vs baseline %.0f pps (>20%%)"
             what now old)
    | _ -> ()
  in
  let num j key = Option.bind (Clara_util.Json.member key j) Clara_util.Json.to_float_opt in
  (match load_baseline () with
  | None -> ()
  | Some j ->
      let old_nfs =
        match Clara_util.Json.member "nfs" j with Some (Clara_util.Json.List l) -> l | _ -> []
      in
      List.iter
        (fun (name, pps) ->
          let named nf = Clara_util.Json.member "name" nf = Some (Clara_util.Json.String name) in
          gate (name ^ " event-path") ~now:pps
            ~old:(Option.bind (List.find_opt named old_nfs) (fun nf -> num nf "event_pps")))
        rows;
      (* A sharded figure compares only at the same domain count. *)
      (match Clara_util.Json.member "sharded" j with
      | Some sh
        when Clara_util.Json.member "nf" sh = Some (Clara_util.Json.String "dpi")
             && Clara_util.Json.member "domains" sh = Some (Clara_util.Json.Int par) ->
          gate "dpi sharded" ~now:shard_pps ~old:(num sh "pps")
      | _ -> ()));
  update_snapshot
    [ ("packets", Clara_util.Json.Int packets);
      ( "nfs",
        Clara_util.Json.List
          (List.map
             (fun (name, pps) ->
               Clara_util.Json.Obj
                 [ ("name", Clara_util.Json.String name);
                   ("event_pps", Clara_util.Json.Float pps) ])
             rows) );
      ( "sharded",
        Clara_util.Json.Obj
          [ ("nf", Clara_util.Json.String "dpi");
            ("shards", Clara_util.Json.Int 4);
            ("domains", Clara_util.Json.Int par);
            ("pps", Clara_util.Json.Float shard_pps) ] ) ];
  csv_out "nicsim" [ "event_pps"; "sharded_pps" ]
    (List.map (fun (_, pps) -> [ pps; shard_pps ]) rows)

(* ------------------------------------------------------------------ *)
(* Off-path DPU: the two-regime bluefield model                        *)

(* Three guards on the off-path backend: the pinned hit-ratio sweep must
   be deterministic and monotone with a 0-vs-1 gap of at least the
   upcall cost; predictor and simulator must agree on p50 latency within
   the bound the on-path targets meet; and the cross-architecture
   verdict must diverge (lookup-heavy lpm wins on the eSwitch, the
   payload-heavy dpi on the NPU part). *)
let offpath_bench () =
  header "Off-path: two-regime prediction on the bluefield target";
  let bf = L.Bluefield.default in
  let entries = 8_192 in
  let src = Clara_nfs.Lpm.source ~entries in
  let prof = profile ~packets:10_000 ~flows:500 () in
  let a =
    match Clara.analyze_for_profile bf ~source:src ~profile:prof with
    | Ok a -> a
    | Error e -> failwith ("offpath: analyze on bluefield: " ^ e)
  in
  let trace = W.Trace.synthesize ~seed:31L prof in
  let predict_at h =
    let config = { Lat.default_config with Lat.flow_cache_hit_ratio = Some h } in
    (Clara.predict ~config a trace).Lat.mean_cycles
  in
  (* 1. Hit-ratio sweep: deterministic, monotone, gap >= upcall. *)
  Printf.printf "%-10s %14s\n" "hit-ratio" "mean cycles";
  let sweep = [ 0.; 0.25; 0.5; 0.75; 1. ] in
  let means = List.map predict_at sweep in
  List.iter2 (fun h m -> Printf.printf "%-10.2f %14.0f\n" h m) sweep means;
  List.iter2
    (fun h m ->
      if predict_at h <> m then
        failwith "offpath: hit-ratio sweep is not deterministic")
    sweep means;
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b && monotone rest
    | _ -> true
  in
  if not (monotone means) then
    failwith "offpath: prediction does not fall as the hit ratio rises";
  let gap = List.nth means 0 -. List.nth means (List.length means - 1) in
  let upcall = float_of_int (L.Graph.upcall_cycles bf) in
  if gap < upcall then
    failwith
      (Printf.sprintf
         "offpath: hit-ratio 0 vs 1 differ by %.0f cyc, less than the %.0f \
          cyc upcall"
         gap upcall);
  Printf.printf "hit-ratio 0 vs 1 gap: %.0f cyc (upcall %.0f cyc)\n" gap upcall;
  (* 2. Predictor vs simulator on the same target (LRU-tracked hits). *)
  let prog = Clara_nfs.Lpm.ported ~entries ~use_flow_cache:true () in
  let p = Clara.predict a trace in
  let r = Eng.run bf prog trace in
  let pred_p50 = p.Lat.p50_cycles in
  let sim_p50 = float_of_int r.Eng.summary.SStats.p50_cycles in
  let err = pct_err pred_p50 sim_p50 in
  Printf.printf "p50: predicted %.0f cyc, simulated %.0f cyc, err %+.1f%%\n"
    pred_p50 sim_p50 err;
  if Float.abs err > 15. then
    failwith
      (Printf.sprintf "offpath: predict-vs-sim p50 error %.1f%% exceeds 15%%"
         err);
  (* Regression gate against the committed baseline: the absolute
     predict-vs-sim gap may not grow more than 20% (plus a 0.5 pp noise
     floor) over the recorded one.  Warns by default; fails under
     CLARA_BENCH_ENFORCE=1, like the nicsim throughput gate. *)
  (match
     Option.bind (load_baseline ()) (fun j ->
         Option.bind (Clara_util.Json.member "offpath" j) (fun o ->
             Option.bind
               (Clara_util.Json.member "p50_err_pct" o)
               Clara_util.Json.to_float_opt))
   with
  | None -> ()
  | Some base_err when Float.abs err > (Float.abs base_err *. 1.2) +. 0.5 ->
      soft_fail
        (Printf.sprintf
           "offpath predict-vs-sim p50 gap regressed: %+.1f%% vs baseline %+.1f%% (>20%%)"
           err base_err)
  | Some base_err ->
      Printf.printf "p50 gap vs baseline: %+.1f%% now, %+.1f%% recorded — ok\n" err
        base_err);
  update_snapshot
    [ ( "offpath",
        Clara_util.Json.Obj
          [ ("nf", Clara_util.Json.String "lpm");
            ("entries", Clara_util.Json.Int entries);
            ("p50_err_pct", Clara_util.Json.Float err) ] ) ];
  (* 3. Cross-architecture verdicts in wall time. *)
  let mean_us lnic' src' =
    match Clara.analyze_for_profile lnic' ~source:src' ~profile:prof with
    | Error e -> failwith ("offpath: " ^ e)
    | Ok a' ->
        let freq = float_of_int (L.Graph.freq_mhz lnic') in
        (Clara.predict a' trace).Lat.mean_cycles /. freq
  in
  let verdict name src' =
    let n_us = mean_us lnic src' and b_us = mean_us bf src' in
    Printf.printf "%-10s netronome %8.2f us   bluefield %8.2f us   -> %s\n"
      name n_us b_us
      (if b_us < n_us then "bluefield" else "netronome");
    b_us < n_us
  in
  let lpm_wins_bf = verdict "lpm" src in
  let dpi_wins_bf = verdict "dpi" Clara_nfs.Dpi.source in
  if not lpm_wins_bf then
    failwith "offpath: lookup-heavy lpm does not win on the eSwitch fast path";
  if dpi_wins_bf then
    failwith "offpath: payload-heavy dpi should stay on the on-path NPU"

(* ------------------------------------------------------------------ *)
(* N-tenant WRR co-residence                                           *)

let tenants_bench () =
  header "Tenants: N-way co-residence under two-stage WRR scheduling";
  Printf.printf
    "Two guards: repeated N-tenant runs must be byte-identical (the WRR\n\
     scheduler is deterministic), and under skewed weights the heavy tenant\n\
     must see no worse p99 and no more drops than a starved one.\n\n";
  let jsons rs = Array.map (fun r -> Clara_util.Json.to_string (Eng.result_to_json r)) rs in
  (* Determinism: three distinct tenants, two runs, byte-identical. *)
  let prof = profile ~packets:6_000 ~rate:300_000. () in
  let progs =
    [| Clara_nfs.Nat.ported ~checksum_engine:true ();
       Clara_nfs.Firewall.ported ~entries:65_536 ~placement:Dev.P_emem ();
       Clara_nfs.Dpi.ported () |]
  in
  let traces = [| W.Trace.synthesize ~seed:31L prof;
                  W.Trace.synthesize ~seed:57L prof;
                  W.Trace.synthesize ~seed:91L prof |] in
  let r1 = Eng.run_tenants lnic progs traces in
  let r2 = Eng.run_tenants lnic progs traces in
  if jsons r1 <> jsons r2 then failwith "tenants: repeated runs differ";
  Array.iteri
    (fun i (r : Eng.result) ->
      Printf.printf "%-10s p99 %7d cyc   mean %9.0f cyc   drops %5d\n"
        [| "nat"; "firewall"; "dpi" |].(i)
        r.Eng.summary.SStats.p99_cycles r.Eng.summary.SStats.mean_cycles
        r.Eng.summary.SStats.drops)
    r1;
  Printf.printf "%-10s deterministic: two N=3 runs byte-identical\n" "tenants";
  (* Fairness under skewed weights: three copies of a heavy stateless NF
     (no table names to clash) at a rate the starved slices cannot
     sustain; the weight-8 tenant keeps its latency and drop profile. *)
  let heavy = profile ~packets:4_000 ~rate:400_000. () in
  let dpi () = Clara_nfs.Dpi.ported () in
  let hprogs = [| dpi (); dpi (); dpi () |] in
  let htraces = Array.init 3 (fun i ->
      W.Trace.synthesize ~seed:(Int64.of_int (31 + i)) heavy) in
  let hr = Eng.run_tenants ~weights:[| 8; 1; 1 |] lnic hprogs htraces in
  Array.iteri
    (fun i (r : Eng.result) ->
      Printf.printf "dpi[w=%d]    p99 %8d cyc   drops %5d\n"
        [| 8; 1; 1 |].(i) r.Eng.summary.SStats.p99_cycles r.Eng.summary.SStats.drops)
    hr;
  (* Percentiles cover admitted packets only, so a starved tenant that
     sheds its worst-wait packets can report a deceptively low p99 —
     goodput and drops are the honest fairness metrics. *)
  let admitted i = hr.(i).Eng.summary.SStats.packets in
  let drops i = hr.(i).Eng.summary.SStats.drops in
  if drops 0 > drops 2 then
    failwith "tenants: weight-8 tenant drops more than a weight-1 tenant";
  if admitted 0 < admitted 2 then
    failwith "tenants: weight-8 tenant admits fewer packets than a weight-1 tenant";
  if drops 2 <= drops 0 then
    failwith "tenants: starved tenant never shed load (guard not exercising contention)";
  Printf.printf "%-10s fairness: weight-8 tenant dominates weight-1 tenants\n" "tenants"

(* ------------------------------------------------------------------ *)

let sections =
  [ ("figure1", figure1);
    ("figure3a", figure3a);
    ("figure3b", figure3b);
    ("figure3c", figure3c);
    ("packet-types", packet_types);
    ("microbench", microbench);
    ("mapping", mapping_example);
    ("ablations", ablations);
    ("ilp", ilp_bench);
    ("interference", interference);
    ("nics", nic_selection);
    ("throughput", throughput_validation);
    ("load-latency", load_latency);
    ("chains", chains);
    ("energy", energy);
    ("partial", partial);
    ("zoo", zoo);
    ("sweep", sweep_bench);
    ("trace", trace_guard);
    ("nicsim", nicsim_bench);
    ("offpath", offpath_bench);
    ("tenants", tenants_bench);
    ("lint", lint_bench);
    ("bounds", bounds_bench) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  let reg = Clara_obs.Registry.default in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> Clara_obs.Registry.span reg ("bench-" ^ name) f
      | None ->
          Printf.printf "unknown section %s; available: %s\n" name
            (String.concat " " (List.map fst sections)))
    requested;
  (* Per-stage breakdown of everything that just ran: bench sections at
     the top level, pipeline/ILP/nicsim spans nested under them, plus
     solver and simulator counters.  CLARA_STATS_JSON=FILE dumps the same
     registry as JSON so BENCH_* entries can carry stage breakdowns. *)
  header "Stage breakdown (lib/obs)";
  Format.printf "%a@." Clara_obs.Export.pp_table reg;
  match Sys.getenv_opt "CLARA_STATS_JSON" with
  | None -> ()
  | Some path ->
      Clara_obs.Export.write_json path reg;
      Printf.printf "[obs] wrote %s\n" path
