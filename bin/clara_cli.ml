(* clara — performance clarity for SmartNIC offloading, from the CLI.

   Subcommands:
     analyze     the performance profile of an unported NF: its mapping,
                 per-packet-type paths, workload latency, throughput,
                 energy breakdown and ranked partial-offload splits
     predict     workload-level latency prediction
     microbench  extract NIC parameters (§3.2) from the simulator
     nics        compare SmartNIC targets for one NF + workload
     chain       predict a service chain of several NF sources
     corpus      list/dump the bundled NF sources
     trace-gen   synthesize a pcap trace from an abstract profile
     sweep       parallel design-space exploration from a spec file
     tenants     N NFs co-resident under weighted-round-robin scheduling
     trace       simulate a ported NF with per-packet event tracing
     sim         simulate a ported NF and report simulator throughput (optionally sharded)
     lint        static analysis: races, feasibility, dead paths, cost hazards
     bounds      static per-packet-type latency bounds and SLO verdicts
     calibrate   predicted-vs-simulated records appended to a ledger
     report      summarize a calibration ledger

   Every argument is defined once below, and the commands compose the
   shared terms: the NF, the target, the mapping options, the workload,
   and the analysis they yield together. *)

module W = Clara_workload
module L = Clara_lnic
module J = Clara_util.Json
module Nsim = Clara_nicsim
open Cmdliner
open Term.Syntax

let read_file path = In_channel.with_open_bin path In_channel.input_all

let or_die = function
  | Ok v -> v
  | Error e ->
      prerr_endline ("clara: " ^ e);
      exit 1

let write_json_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      J.to_channel ~pretty:false oc j;
      output_char oc '\n')

(* ---- shared arguments --------------------------------------------- *)

(* The terms that can fail with a [clara:] error (an unknown target, an
   unreadable NF or capture) come last in each command, so that every
   flag is parsed before one of them exits. *)

let source_arg =
  let doc = "NF DSL source file." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"NF.clara" ~doc)

let nf_arg doc = Arg.(required & pos 0 (some string) None & info [] ~docv:"NF" ~doc)

(* The target's name as given and the LNIC it names. *)
let target_t ?(names = [ "nic" ])
    ?(doc = "Target: 'netronome' (default), 'soc', 'bluefield', 'asic', or 'host'.") () =
  let+ nic = Arg.(value & opt string "netronome" & info names ~docv:"NIC" ~doc) in
  (nic, or_die (L.Targets.of_name nic))

let options_t =
  let+ no_flow_cache =
    let doc = "Forbid the flow-cache accelerator (software match/action variant)." in
    Arg.(value & flag & info [ "no-flow-cache" ] ~doc)
  and+ no_accels =
    let doc = "Forbid every accelerator (cores-only port)." in
    Arg.(value & flag & info [ "no-accels" ] ~doc)
  in
  let disallowed =
    if no_accels then
      [ L.Unit_.Parse; L.Unit_.Checksum; L.Unit_.Lookup; L.Unit_.Crypto;
        L.Unit_.Eswitch ]
    else if no_flow_cache then [ L.Unit_.Lookup; L.Unit_.Eswitch ]
    else []
  in
  { Clara_mapping.Mapping.default_options with
    Clara_mapping.Mapping.disallowed_accels = disallowed }

(* The workload flags as an abstract profile; [calibrate] sizes its
   cases with other [--packets]/[--flows] defaults. *)
let profile_t ?(packets = (20_000, "Trace length in packets."))
    ?(flows = (10_000, "Concurrent flows.")) () =
  let count name (default, doc) = Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc) in
  let+ payload =
    let doc = "Mean payload size in bytes." in
    Arg.(value & opt int 300 & info [ "payload" ] ~docv:"BYTES" ~doc)
  and+ packets = count "packets" packets
  and+ flows = count "flows" flows
  and+ rate =
    let doc = "Offered load in packets per second." in
    Arg.(value & opt float 60_000. & info [ "rate" ] ~docv:"PPS" ~doc)
  and+ tcp =
    let doc = "TCP fraction of the traffic mix (rest is UDP)." in
    Arg.(value & opt float 0.8 & info [ "tcp" ] ~docv:"FRAC" ~doc)
  in
  W.Profile.make ~payload:(W.Dist.Fixed payload) ~packets ~flow_count:flows
    ~rate_pps:rate ~tcp_fraction:tcp ()

type workload = { profile : W.Profile.t; seed : int; pcap : string option }

(* The profile plus the seed that synthesizes its trace and, where the
   command replays captures, [--pcap]. *)
let workload_t ?(capture = true) ?packets ?flows () =
  let+ profile = profile_t ?packets ?flows ()
  and+ seed =
    let doc = "PRNG seed for trace synthesis." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  and+ pcap =
    if capture then
      let doc = "Use packets from this pcap file instead of a synthetic trace." in
      Arg.(value & opt (some file) None & info [ "pcap" ] ~docv:"FILE" ~doc)
    else Term.const None
  in
  { profile; seed; pcap }

(* The [i]th synthetic trace of the workload: tenant [i] runs seed + i. *)
let synthesize ?(i = 0) w = W.Trace.synthesize ~seed:(Int64.of_int (w.seed + i)) w.profile

let trace_of w =
  match w.pcap with Some file -> or_die (W.Pcap.read_file file) | None -> synthesize w

let threads_arg ?(doc = "Override the NIC's hardware thread count.") () =
  Arg.(value & opt (some int) None & info [ "threads" ] ~docv:"N" ~doc)

let slo_arg doc = Arg.(value & opt (some float) None & info [ "slo-p99-us" ] ~docv:"US" ~doc)

let json_arg =
  let doc = "Emit the report as JSON instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

(* [--stats]/[--stats-json]: the term yields the function that prints
   or writes the observability registry once the command is done. *)
let stats_t =
  let+ stats =
    let doc =
      "Print the observability registry (per-stage spans, ILP and simulator \
       counters) as a table after the command."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  and+ stats_json =
    let doc = "Dump the observability registry as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)
  in
  fun () ->
    let reg = Clara_obs.Registry.default in
    if stats then begin
      Format.printf "@.---- stats (lib/obs) ----@.";
      Format.printf "%a@." Clara_obs.Export.pp_table reg
    end;
    Option.iter
      (fun file ->
        Clara_obs.Export.write_json file reg;
        Format.eprintf "clara: wrote stats to %s@." file)
      stats_json

(* [--metrics]/[--metrics-cadence]: the sim-time collector, when one is
   asked for, and the function that writes it after the run. *)
let metrics_t =
  let+ path =
    let doc =
      "Write sim-time telemetry series (per-tenant queue depth, goodput, drops, \
       latency, WRR deficit, cache hits/misses; sim-wide accel/DMA occupancy, \
       upcalls) to $(docv).  A '.csv' extension selects CSV, \
       anything else JSON.  Off by default, with zero simulation cost when off."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  and+ cadence =
    let doc = "Telemetry window width in core cycles (downsamples as runs grow)." in
    Arg.(value & opt int 8192 & info [ "metrics-cadence" ] ~docv:"CYCLES" ~doc)
  in
  match path with
  | None -> (None, ignore)
  | Some path ->
      if cadence <= 0 then or_die (Error "--metrics-cadence must be positive");
      let t = Nsim.Telemetry.create ~cadence () in
      let write () =
        if Filename.check_suffix path ".csv" then
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Nsim.Telemetry.to_csv t))
        else write_json_file path (Nsim.Telemetry.to_json t);
        Format.eprintf "clara: wrote metrics to %s@." path
      in
      (Some t, write)

let corpus_entry name = or_die (Clara_nfs.Corpus.resolve name)

(* A port the target cannot host (say, an LPM flow-cache table on a NIC
   without a flow cache) is a [clara:] error before any run starts, and
   one asking for an operation the target cannot run is one when the
   run reaches it, sharded or not. *)
let cannot_simulate ~what nic m =
  or_die (Error (Printf.sprintf "cannot simulate %s on %s: %s" what nic m))

let check_hostable ~what nic lnic progs =
  match Nsim.Device.check lnic progs with Ok () -> () | Error m -> cannot_simulate ~what nic m

let simulate ~what nic run =
  try run () with
  | Nsim.Device.Unrunnable { unit_; op } ->
      cannot_simulate ~what nic (Printf.sprintf "the %s cannot run %s" unit_ op)

(* A mapping that puts a node on a unit that cannot run it is found when
   the predictor is created: a [clara:] error and exit 1, like every
   other input the model cannot price. *)
let predicting f =
  try f () with Clara_predict.Latency.Unpriceable _ as e -> or_die (Error (Printexc.to_string e))

(* A source argument is a file path if one exists, else a corpus name. *)
let resolve_nf arg =
  if Sys.file_exists arg then (Filename.basename arg, read_file arg)
  else (arg, (corpus_entry arg).Clara_nfs.Corpus.source)

(* ---- analyze ------------------------------------------------------ *)

type analyzed = { analysis : Clara.analysis; trace : W.Trace.t; rate : float }

(* The NF source mapped onto the target.  A capture is analyzed at its
   own mix, not at the flags'; the offered rate stays the flags'. *)
let analyzed_t =
  let+ src = source_arg
  and+ options = options_t
  and+ w = workload_t ()
  and+ _, lnic = target_t () in
  let source = read_file src in
  let trace = trace_of w in
  let profile = W.Trace.profile_of trace in
  let analysis = or_die (Clara.analyze_for_profile ~options lnic ~source ~profile) in
  { analysis; trace; rate = w.profile.W.Profile.rate_pps }

let analyze_cmd =
  let doc =
    "Analyze an unported NF and print its performance profile: the mapping, \
     per-packet-type latency (symbolic paths), workload prediction, throughput, \
     per-unit energy and the ranked NIC/host partial-offload splits."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
  @@ let+ json = json_arg and+ emit_stats = stats_t and+ a = analyzed_t in
     let report = Clara.Report.build ~trace:a.trace ~rate_pps:a.rate a.analysis in
     if json then print_endline (J.to_string (Clara.Report.to_json report))
     else Format.printf "%a" Clara.Report.render report;
     emit_stats ()

(* ---- predict ------------------------------------------------------ *)

let predict_cmd =
  let hit_ratio_arg =
    let doc =
      "Pin the off-path flow-cache hit ratio in [0,1] instead of tracking \
       per-flow hits (only affects off-path targets like 'bluefield')."
    in
    Arg.(value & opt (some float) None & info [ "hit-ratio" ] ~docv:"RATIO" ~doc)
  in
  let trace_out_arg =
    let doc =
      "Write the predicted per-packet timeline as Chrome/Perfetto trace-event \
       JSON to $(docv) (load at ui.perfetto.dev)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let doc = "Predict workload latency for an unported NF." in
  Cmd.v (Cmd.info "predict" ~doc)
  @@ let+ hit_ratio = hit_ratio_arg
     and+ trace_out = trace_out_arg
     and+ emit_stats = stats_t
     and+ { analysis = a; trace; rate } = analyzed_t in
     predicting @@ fun () ->
     let lnic = a.Clara.lnic in
     let config =
       { Clara_predict.Latency.default_config with
         Clara_predict.Latency.flow_cache_hit_ratio = hit_ratio }
     in
     let p = Clara.predict ~config a trace in
     Format.printf "%a@." Clara_predict.Latency.pp_prediction p;
     let freq = L.Graph.freq_mhz lnic in
     Format.printf "mean latency: %.2f us at %d MHz@."
       (p.Clara_predict.Latency.mean_cycles /. float_of_int freq)
       freq;
     (* Where the predicted cycles go, per packet type. *)
     let predictor =
       Clara_predict.Latency.create ~config lnic a.Clara.df a.Clara.mapping
     in
     let att = Clara_predict.Latency.attribute_trace predictor trace in
     Format.printf "attribution (mean cycles per packet):@.%a"
       Clara_predict.Latency.pp_attribution att;
     (match
        Clara_predict.Throughput.latency_at_rate ~sizes:a.Clara.sizes
          ~prob:a.Clara.prob ~base_cycles:p.Clara_predict.Latency.mean_cycles
          ~rate_pps:rate lnic a.Clara.df a.Clara.mapping
      with
     | Some loaded when loaded > p.Clara_predict.Latency.mean_cycles +. 1. ->
         Format.printf "with queueing at %.0f pps: %.0f cycles@." rate loaded
     | Some _ -> ()
     | None ->
         Format.printf "warning: %.0f pps exceeds the predicted capacity@." rate);
     Option.iter
       (fun file ->
         write_json_file file (Clara_predict.Latency.perfetto_timeline predictor trace);
         Format.eprintf "clara: wrote predicted timeline to %s@." file)
       trace_out;
     emit_stats ()

(* ---- microbench ---------------------------------------------------- *)

let microbench_cmd =
  let doc = "Run the §3.2 microbenchmarks and print extracted parameters." in
  Cmd.v (Cmd.info "microbench" ~doc)
  @@ let+ _, lnic = target_t () in
     Format.printf "%a" Clara.Microbench.pp_calibration (Clara.Microbench.calibrate lnic)

(* ---- nics ---------------------------------------------------------- *)

let nics_cmd =
  let doc = "Compare SmartNIC targets for one NF and workload." in
  Cmd.v (Cmd.info "nics" ~doc)
  @@ let+ profile = profile_t () and+ src = source_arg in
     predicting @@ fun () ->
     let source = read_file src in
     List.iter
       (fun (name, lnic) ->
         let arch = L.Graph.arch_name lnic.L.Graph.arch in
         match Clara.analyze_for_profile lnic ~source ~profile with
         | Error e -> Printf.printf "%-12s %-9s error: %s\n" name arch e
         | Ok a ->
             let p = Clara.predict_profile a profile in
             let tp =
               Clara_predict.Throughput.estimate ~sizes:a.Clara.sizes ~prob:a.Clara.prob
                 lnic a.Clara.df a.Clara.mapping
             in
             let freq = L.Graph.freq_mhz lnic in
             Printf.printf
               "%-12s %-9s latency %9.0f cyc (%7.2f us)   max tput %10.0f pps\n" name
               arch p.Clara_predict.Latency.mean_cycles
               (p.Clara_predict.Latency.mean_cycles /. float_of_int freq)
               tp.Clara_predict.Throughput.max_pps)
       L.Targets.nics

(* ---- trace-gen ------------------------------------------------------ *)

let trace_gen_cmd =
  let out_arg =
    let doc = "Output pcap file." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT.pcap" ~doc)
  in
  let doc = "Synthesize a pcap trace from an abstract workload profile." in
  Cmd.v (Cmd.info "trace-gen" ~doc)
  @@ let+ out = out_arg and+ w = workload_t ~capture:false () in
     let trace = synthesize w in
     W.Pcap.write_file out trace;
     Format.printf "wrote %s: %a@." out W.Trace.pp_stats (W.Trace.stats trace)

(* ---- chain ---------------------------------------------------------- *)

let chain_cmd =
  let sources_arg =
    let doc = "NF DSL source files, in chain order." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"NF.clara..." ~doc)
  in
  let doc = "Predict end-to-end latency of a service chain." in
  Cmd.v (Cmd.info "chain" ~doc)
  @@ let+ srcs = sources_arg
     and+ w = workload_t ~capture:false ()
     and+ emit_stats = stats_t
     and+ _, lnic = target_t () in
     predicting @@ fun () ->
     let sources = List.map read_file srcs in
     let chain = or_die (Clara.Chain.analyze lnic ~sources ~profile:w.profile) in
     let p = Clara.Chain.predict chain (synthesize w) in
     Format.printf "chain: %s@." (String.concat " -> " (Clara.Chain.stage_names chain));
     Format.printf "%a@." Clara_predict.Latency.pp_prediction p;
     emit_stats ()

(* ---- sweep ---------------------------------------------------------- *)

let sweep_cmd =
  let spec_arg =
    let doc = "Sweep specification file (JSON; see README for the schema)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SWEEP.json" ~doc)
  in
  let domains_arg =
    let doc = "Worker domains (default: the runtime's recommendation, capped at 8)." in
    Arg.(value & opt int 0 & info [ "domains"; "j" ] ~docv:"N" ~doc)
  in
  let cache_arg =
    let doc = "Result cache directory." in
    Arg.(value & opt string ".clara-cache/sweep" & info [ "cache" ] ~docv:"DIR" ~doc)
  in
  let no_cache_arg =
    let doc = "Disable the result cache (recompute every cell)." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let format_arg =
    let doc = "Output format: 'text', 'json', or 'csv'." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("csv", `Csv) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let out_arg =
    let doc = "Write the report to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let timeout_arg =
    let doc =
      "Per-cell budget in milliseconds; an over-budget cell is reported as \
       failed without aborting the sweep."
    in
    Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let doc =
    "Evaluate a design-space sweep (NFs x NICs x options x workloads) in \
     parallel, with a content-addressed result cache."
  in
  Cmd.v (Cmd.info "sweep" ~doc)
  @@ let+ spec_file = spec_arg
     and+ domains = domains_arg
     and+ cache_dir = cache_arg
     and+ no_cache = no_cache_arg
     and+ format = format_arg
     and+ out = out_arg
     and+ timeout_ms = timeout_arg
     and+ slo =
       slo_arg
         "Prune cells whose static latency lower bound (see 'clara bounds') \
          already exceeds this p99 SLO in microseconds, skipping their \
          simulation entirely; pruned cells are reported with status 'pruned'."
     and+ emit_stats = stats_t in
     let spec = or_die (Clara_explore.Spec.load spec_file) in
     let domains =
       if domains > 0 then domains else min 8 (Domain.recommended_domain_count ())
     in
     let cache =
       if no_cache then None else Some (Clara_explore.Cache.create ~dir:cache_dir)
     in
     let report =
       Clara_explore.Sweep.run ~domains ?timeout_ms ?cache ?slo_p99_us:slo spec
     in
     let emit oc =
       match format with
       | `Text ->
           let fmt = Format.formatter_of_out_channel oc in
           Format.fprintf fmt "%a@?" Clara_explore.Sweep.render report
       | `Json ->
           J.to_channel oc (Clara_explore.Sweep.to_json report);
           output_char oc '\n'
       | `Csv -> output_string oc (Clara_explore.Sweep.to_csv report)
     in
     (match out with
     | None -> emit stdout
     | Some file ->
         let oc = open_out file in
         Fun.protect ~finally:(fun () -> close_out oc) (fun () -> emit oc);
         Format.eprintf "clara: wrote %s@." file);
     emit_stats ();
     if Array.exists
          (fun (o : Clara_explore.Sweep.outcome) ->
            match o.Clara_explore.Sweep.status with
            | Clara_explore.Sweep.Failed _ -> true
            | _ -> false)
          report.Clara_explore.Sweep.outcomes
     then exit 3

(* ---- lint / bounds -------------------------------------------------- *)

(* An NF for the static analyses: the target it is checked against
   ([--target], alias [--nic]) and its coarsened CIR. *)
let coarsened_t ~nf_doc ~target_doc =
  let+ nf = nf_arg nf_doc
  and+ _, lnic = target_t ~names:[ "target"; "nic" ] ~doc:target_doc () in
  let _name, source = resolve_nf nf in
  (lnic, fst (Clara_cir.Patterns.run (or_die (Clara_cir.Lower.of_source source))))

let lint_cmd =
  let doc =
    "Statically lint an NF: shared-state races, offload feasibility against a \
     target NIC, contradictory guards, and cost hazards.  Exits nonzero when \
     any error-severity diagnostic fires."
  in
  Cmd.v (Cmd.info "lint" ~doc)
  @@ let+ json = json_arg
     and+ emit_stats = stats_t
     and+ lnic, ir =
       coarsened_t ~nf_doc:"NF to lint: a DSL source file, or a corpus NF name."
         ~target_doc:
           "Lint against this target: 'netronome' (default), 'soc', 'bluefield', \
            'asic', or 'host'."
     in
     let report = Clara_analysis.Suite.run ~lnic ir in
     if json then print_endline (J.to_string (Clara_analysis.Suite.to_json report))
     else Format.printf "%a@." Clara_analysis.Suite.pp report;
     emit_stats ();
     if Clara_analysis.Suite.has_errors report then exit 1

let bounds_cmd =
  let doc =
    "Static per-packet-type latency bounds via interval abstract \
     interpretation: loop trips inferred from guards and payload ranges, \
     per-axis cycle intervals (queue/compute/accel-wait/mem/wire) per \
     traffic class, and an optional provable SLO verdict.  Exits nonzero \
     on CLARA401 (statically unbounded loop) or CLARA403 (provable SLO \
     violation)."
  in
  Cmd.v (Cmd.info "bounds" ~doc)
  @@ let+ slo =
       slo_arg
         "p99 latency SLO in microseconds.  The verdict is three-way: \
          'provably-meets' (static upper bound under the SLO), \
          'provably-violates' (even the best case exceeds it — also a \
          CLARA403 error), or 'unclear' (the SLO falls inside the bounds)."
     and+ json = json_arg
     and+ emit_stats = stats_t
     and+ lnic, ir =
       coarsened_t ~nf_doc:"NF to bound: a DSL source file, or a corpus NF name."
         ~target_doc:
           "Target NIC: 'netronome' (default), 'soc', 'bluefield', 'asic', or \
            'host'."
     in
     let module B = Clara_analysis.Bounds in
     let b = B.analyze ~lnic ir in
     let diags = B.lint ~lnic ?slo_p99_us:slo (Clara_dataflow.Build.of_ir ir) in
     let verdict s = B.verdict_name (B.verdict b ~slo_p99_us:s) in
     if json then
       print_endline
         (J.to_string
            (match (B.to_json b, slo) with
            | J.Obj fs, Some s ->
                J.Obj (fs @ [ ("slo_p99_us", J.Float s); ("verdict", J.String (verdict s)) ])
            | j, _ -> j))
     else begin
       Format.printf "%a@." B.pp b;
       List.iter (fun d -> Format.printf "%a@." Clara_analysis.Diag.pp d) diags;
       Option.iter
         (fun s ->
           Format.printf "SLO p99 <= %.2f us (%.0f cycles): %s@." s
             (B.slo_cycles b ~slo_p99_us:s) (verdict s))
         slo
     end;
     emit_stats ();
     if
       List.exists
         (fun d -> d.Clara_analysis.Diag.severity = Clara_analysis.Diag.Error)
         diags
     then exit 1

(* ---- trace ---------------------------------------------------------- *)

let trace_cmd =
  let nf_b_arg =
    let doc = "Optional second corpus NF: trace both co-resident." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"NF_B" ~doc)
  in
  let out_arg =
    let doc =
      "Write the trace as Chrome/Perfetto trace-event JSON to $(docv) (load at \
       ui.perfetto.dev)."
    in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let limit_arg =
    let doc = "Trace ring capacity in events (oldest overwritten beyond this)." in
    Arg.(value & opt int 1_000_000 & info [ "trace-limit" ] ~docv:"N" ~doc)
  in
  let slowest_arg =
    let doc = "Print full event timelines for the $(docv) slowest packets." in
    Arg.(value & opt int 3 & info [ "slowest" ] ~docv:"N" ~doc)
  in
  let timeline_arg =
    let doc = "Print the compact text timeline of the recorded events." in
    Arg.(value & flag & info [ "timeline" ] ~doc)
  in
  let doc =
    "Run a ported corpus NF in the simulator with per-packet event tracing: \
     bottleneck attribution, per-unit utilization, slowest-packet timelines, \
     and Chrome/Perfetto export."
  in
  Cmd.v (Cmd.info "trace" ~doc)
  @@ let+ nf = nf_arg "Corpus NF to trace (see 'clara corpus')."
     and+ nf_b = nf_b_arg
     and+ w = workload_t ()
     and+ out = out_arg
     and+ limit = limit_arg
     and+ slowest = slowest_arg
     and+ timeline = timeline_arg
     and+ threads = threads_arg ()
     and+ emit_stats = stats_t
     and+ nic, lnic = target_t ()
     and+ tel, write_metrics = metrics_t in
     let sink = Nsim.Trace.create ~limit () in
     let ea = corpus_entry nf in
     let freq_mhz =
       match nf_b with
       | None ->
           check_hostable ~what:nf nic lnic [ ea.Clara_nfs.Corpus.ported ];
           let r =
             simulate ~what:nf nic (fun () ->
                 Nsim.Engine.run ?threads ~sink ?metrics:tel lnic ea.Clara_nfs.Corpus.ported
                   (trace_of w))
           in
           Format.printf "%s on %s: %a@." nf nic Nsim.Engine.pp_result r;
           r.Nsim.Engine.freq_mhz
       | Some nfb ->
           let eb = corpus_entry nfb in
           let what = nf ^ " and " ^ nfb in
           check_hostable ~what nic lnic
             [ ea.Clara_nfs.Corpus.ported; eb.Clara_nfs.Corpus.ported ];
           let ta = trace_of w in
           let ra, rb =
             match
               simulate ~what nic (fun () ->
                   Nsim.Engine.run_tenants ?threads ~sink ?metrics:tel lnic
                     [| ea.Clara_nfs.Corpus.ported; eb.Clara_nfs.Corpus.ported |]
                     [| ta; synthesize ~i:1 w |])
             with
             | [| a; b |] -> (a, b)
             | _ -> assert false
           in
           Format.printf "co-resident on %s:@." nic;
           Format.printf "  %-14s %a@." nf Nsim.Engine.pp_result ra;
           Format.printf "  %-14s %a@." nfb Nsim.Engine.pp_result rb;
           ra.Nsim.Engine.freq_mhz
     in
     Format.printf "trace: %d events recorded, %d retained, %d lost to ring wrap@."
       (Nsim.Trace.total sink)
       (Array.length (Nsim.Trace.events sink))
       (Nsim.Trace.dropped sink);
     let report = Nsim.Attribution.analyze sink in
     Format.printf "@.latency attribution (mean cycles per packet):@.%a"
       Nsim.Attribution.pp_report report;
     Format.printf "@.%a" Nsim.Attribution.pp_utilization (Nsim.Attribution.utilization sink);
     if slowest > 0 then
       Format.printf "@.slowest packets:@.%a" Nsim.Attribution.pp_slowest
         (Nsim.Attribution.slowest sink report ~n:slowest);
     if timeline then Format.printf "@.%a" (Nsim.Trace_export.pp_text ?limit:None) sink;
     Option.iter
       (fun path ->
         Nsim.Trace_export.write_perfetto sink ~freq_mhz ~path;
         Format.eprintf "clara: wrote Perfetto trace to %s@." path)
       out;
     write_metrics ();
     emit_stats ()

(* ---- sim ------------------------------------------------------------ *)

let sim_cmd =
  let domains_arg =
    let doc = "Simulate flow shards in parallel on $(docv) OCaml domains." in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc =
      "Number of independent NIC slices to shard flows onto (defaults to \
       --domains; results depend on the shard count, never the domain count)."
    in
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)
  in
  let doc =
    "Simulate a ported corpus NF on the event path, optionally sharding its \
     flows across OCaml domains.  Reports simulator throughput in \
     packets/sec."
  in
  Cmd.v (Cmd.info "sim" ~doc)
  @@ let+ nf = nf_arg "Corpus NF to simulate (see 'clara corpus')."
     and+ domains = domains_arg
     and+ shards = shards_arg
     and+ threads = threads_arg ()
     and+ w = workload_t ()
     and+ json = json_arg
     and+ emit_stats = stats_t
     and+ nic, lnic = target_t ()
     and+ tel, write_metrics = metrics_t in
     let entry = corpus_entry nf in
     check_hostable ~what:nf nic lnic [ entry.Clara_nfs.Corpus.ported ];
     let wtrace = trace_of w in
     let t0 = Unix.gettimeofday () in
     let r =
       simulate ~what:nf nic (fun () ->
           if domains > 1 || shards <> None then
             Nsim.Engine.run_sharded ~domains ?shards ?threads ?metrics:tel lnic
               entry.Clara_nfs.Corpus.ported wtrace
           else Nsim.Engine.run ?threads ?metrics:tel lnic entry.Clara_nfs.Corpus.ported wtrace)
     in
     let wall_s = Unix.gettimeofday () -. t0 in
     let s = r.Nsim.Engine.summary in
     let total = s.Nsim.Stats.packets + s.Nsim.Stats.drops in
     let pps = if wall_s > 0. then float_of_int total /. wall_s else Float.nan in
     if json then
       print_endline
         (J.to_string
            (J.Obj
               [ ("nf", J.String nf);
                 ("nic", J.String nic);
                 ("result", Nsim.Engine.result_to_json r);
                 ("wall_seconds", J.Float wall_s);
                 ("packets_per_second", J.Float pps) ]))
     else begin
       Format.printf "%s on %s: %a@." nf nic Nsim.Engine.pp_result r;
       Format.printf "simulated %d packets in %.3fs — %.0f packets/sec@." total wall_s pps
     end;
     write_metrics ();
     emit_stats ()

(* ---- calibrate / report --------------------------------------------- *)

module Calib = Clara_calib.Calib

let ledger_arg =
  let doc = "Calibration ledger file (JSON Lines, one record per case)." in
  Arg.(value & opt string "calibration.jsonl" & info [ "ledger" ] ~docv:"FILE" ~doc)

let calibrate_cmd =
  let nfs_arg =
    let doc =
      "NFs to calibrate: corpus names or DSL file paths (a path reduces to its \
       basename, so examples/nf_sources/*.clara works).  Default: the whole \
       corpus."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"NF" ~doc)
  in
  let nics_arg =
    let doc = "Comma-separated targets to calibrate against." in
    Arg.(
      value
      & opt string "netronome,soc,bluefield"
      & info [ "nics" ] ~docv:"NIC,..." ~doc)
  in
  let doc =
    "Run the static predictor and the event simulator over an NF x NIC x \
     workload corpus, decompose both latencies per component \
     (queue/compute/accel-wait/mem/wire), and append per-case calibration \
     records (signed component errors, p50/p99 gaps, provenance) to the \
     ledger.  Cases a target cannot host are skipped with a warning."
  in
  Cmd.v (Cmd.info "calibrate" ~doc)
  @@ let+ nfs = nfs_arg
     and+ nics = nics_arg
     and+ ledger = ledger_arg
     and+ w =
       workload_t ~capture:false
         ~packets:(4000, "Trace length in packets per case.")
         ~flows:(2000, "Concurrent flows per case.") ()
     and+ json = json_arg
     and+ emit_stats = stats_t in
     predicting @@ fun () ->
     let nfs = if nfs = [] then Clara_nfs.Corpus.names else nfs in
     let nics =
       String.split_on_char ',' nics |> List.map String.trim
       |> List.filter (fun s -> s <> "")
     in
     if nics = [] then or_die (Error "--nics is empty");
     let p = w.profile in
     let appended = ref [] in
     let failed = ref 0 in
     List.iter
       (fun nf ->
         List.iter
           (fun nic ->
             let case =
               { (Calib.default_case ~nf ~nic) with
                 Calib.case_packets = p.W.Profile.packets;
                 case_payload = int_of_float (W.Profile.mean_payload p);
                 case_flows = p.W.Profile.flow_count;
                 case_rate = p.W.Profile.rate_pps;
                 case_tcp = p.W.Profile.tcp_fraction;
                 case_seed = w.seed }
             in
             match Calib.run_case case with
             | Error e ->
                 incr failed;
                 Format.eprintf "clara: skipping %s@." e
             | Ok r ->
                 Calib.append ~path:ledger r;
                 appended := r :: !appended;
                 if not json then
                   Printf.printf
                     "%-14s %-10s pred %8.0f cyc  sim %8.0f cyc  gap %+6.1f%%  p50 \
                      %+6.1f%%  p99 %+6.1f%%\n"
                     r.Calib.nf r.Calib.nic r.Calib.pred_mean r.Calib.sim_mean
                     r.Calib.gap_mean_pct r.Calib.gap_p50_pct r.Calib.gap_p99_pct)
           nics)
       nfs;
     let records = List.rev !appended in
     if json then
       print_endline
         (J.to_string
            (J.Obj
               [ ("ledger", J.String ledger);
                 ("appended", J.Int (List.length records));
                 ("skipped", J.Int !failed);
                 ("records", J.List (List.map Calib.record_to_json records)) ]))
     else
       Printf.printf "appended %d record%s to %s (%d case%s skipped)\n"
         (List.length records)
         (if List.length records = 1 then "" else "s")
         ledger !failed
         (if !failed = 1 then "" else "s");
     emit_stats ();
     if records = [] then exit 1

let report_cmd =
  let threshold_arg =
    let doc =
      "Drift threshold in percentage points: the latest entry of an (NF, NIC) \
       group drifts when its absolute gap exceeds the previous entry's by more \
       than this."
    in
    Arg.(value & opt float 5.0 & info [ "threshold" ] ~docv:"PP" ~doc)
  in
  let doc =
    "Summarize a calibration ledger: per-NF / per-NIC error tables, \
     worst-component attribution, and drift detection against prior entries \
     (warns by default; exits 4 under CLARA_BENCH_ENFORCE=1)."
  in
  Cmd.v (Cmd.info "report" ~doc)
  @@ let+ ledger = ledger_arg and+ threshold = threshold_arg and+ json = json_arg in
     let records = or_die (Calib.load ~path:ledger) in
     let rep = Calib.build_report ~drift_threshold:threshold records in
     if json then print_endline (J.to_string (Calib.report_to_json rep))
     else Format.printf "%a" Calib.pp_report rep;
     if rep.Calib.drifts <> [] then begin
       if Sys.getenv_opt "CLARA_BENCH_ENFORCE" = Some "1" then begin
         prerr_endline "clara: accuracy drift detected and CLARA_BENCH_ENFORCE=1";
         exit 4
       end
       else prerr_endline "clara: warning: accuracy drift detected (not enforcing)"
     end

(* ---- tenants -------------------------------------------------------- *)

let tenants_cmd =
  let nfs_arg =
    let doc = "Tenant NFs (two or more): DSL source files, or corpus NF names." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"NF" ~doc)
  in
  let weights_arg =
    let doc =
      "Comma-separated positive integer scheduling weights, one per tenant \
       (default: equal).  Threads, queue slots and the WRR grant divide in \
       this proportion."
    in
    Arg.(value & opt (some string) None & info [ "weights" ] ~docv:"W1,W2,..." ~doc)
  in
  let parse_weights n = function
    | None -> Array.make n 1
    | Some s ->
        let ws =
          List.map
            (fun p ->
              match int_of_string_opt (String.trim p) with
              | Some w when w > 0 -> w
              | _ -> or_die (Error ("bad weight '" ^ p ^ "' (positive integers only)")))
            (String.split_on_char ',' s)
        in
        if List.length ws <> n then
          or_die
            (Error
               (Printf.sprintf "--weights has %d entries for %d tenants"
                  (List.length ws) n));
        Array.of_list ws
  in
  (* Jain's fairness index over weight-normalized service: 1.0 = perfectly
     proportional, below ~0.9 some tenant is being starved. *)
  let jain xs =
    let n = float_of_int (Array.length xs) in
    let s = Array.fold_left ( +. ) 0. xs in
    let s2 = Array.fold_left (fun a x -> a +. (x *. x)) 0. xs in
    if s2 <= 0. then 1. else s *. s /. (n *. s2)
  in
  let doc =
    "Predict and simulate N NFs co-resident on one NIC under two-stage \
     weighted-round-robin scheduling: per-tenant p99/throughput/isolation \
     error plus a fairness/SLO verdict."
  in
  Cmd.v (Cmd.info "tenants" ~doc)
  @@ let+ nfs = nfs_arg
     and+ weights_s = weights_arg
     and+ w = workload_t ~capture:false ()
     and+ slo = slo_arg "Per-tenant p99 latency SLO in microseconds."
     and+ threads =
       threads_arg ~doc:"Override the NIC's hardware thread count before splitting." ()
     and+ json = json_arg
     and+ emit_stats = stats_t
     and+ nic, lnic = target_t ()
     and+ tel, write_metrics = metrics_t in
     predicting @@ fun () ->
     let module I = Clara.Interference in
     let n = List.length nfs in
     if n < 2 then or_die (Error "tenants needs at least two NFs");
     let weights = parse_weights n weights_s in
     let profile = w.profile in
     let resolved = List.map resolve_nf nfs in
     let names = Array.of_list (List.map fst resolved) in
     let sources = Array.of_list (List.map snd resolved) in
     let reports =
       or_die (I.analyze_n ~weights lnic ~sources ~profiles:(Array.make n profile))
     in
     (* Simulation needs ported handlers: every argument must resolve to
        a corpus NF (a file path counts when it is that NF's source). *)
     let entries = List.map Clara_nfs.Corpus.resolve nfs in
     let sim =
       if List.for_all Result.is_ok entries then begin
         let progs =
           Array.of_list
             (List.map (fun e -> (Result.get_ok e).Clara_nfs.Corpus.ported) entries)
         in
         let traces = Array.init n (fun i -> synthesize ~i w) in
         match Nsim.Engine.run_tenants ?threads ~weights ?metrics:tel lnic progs traces with
         | rs -> Ok rs
         | exception Invalid_argument m -> Error ("simulation skipped: " ^ m)
         | exception (Nsim.Device.Unrunnable _ as e) ->
             Error ("simulation skipped: " ^ Printexc.to_string e)
       end
       else Error "simulation skipped: not every NF is a corpus NF (see 'clara corpus')"
     in
     let freq_mhz = float_of_int (L.Graph.freq_mhz lnic) in
     let duration_s = float_of_int profile.W.Profile.packets /. profile.W.Profile.rate_pps in
     let wsum = Array.fold_left ( + ) 0 weights in
     (* Per-tenant rows: predicted always; simulated when available. *)
     let sim_rows =
       match sim with
       | Error _ -> None
       | Ok rs ->
           Some
             (Array.mapi
                (fun i (r : Nsim.Engine.result) ->
                  let s = r.Nsim.Engine.summary in
                  let sliced = reports.(i).I.sliced_cycles in
                  let tput = float_of_int s.Nsim.Stats.packets /. duration_s in
                  (s, tput, 100. *. (s.Nsim.Stats.mean_cycles -. sliced) /. sliced))
                rs)
     in
     let p99_us_of i =
       match sim_rows with
       | Some rows ->
           let s, _, _ = rows.(i) in
           float_of_int s.Nsim.Stats.p99_cycles /. freq_mhz
       | None -> reports.(i).I.contended_cycles /. freq_mhz
     in
     let fairness =
       match sim_rows with
       | Some rows ->
           jain (Array.mapi (fun i (_, tput, _) -> tput /. float_of_int weights.(i)) rows)
       | None ->
           jain (Array.map (fun (r : I.report) -> 1. /. Float.max 1e-9 r.I.slowdown) reports)
     in
     let fair = fairness >= 0.9 in
     let slo_met = Option.map (fun limit -> Array.init n (fun i -> p99_us_of i <= limit)) slo in
     let saturated = Array.exists (fun r -> r.I.saturated) reports in
     if json then begin
       let tenant i =
         let r = reports.(i) in
         let base =
           [ ("nf", J.String names.(i));
             ("weight", J.Int weights.(i));
             ("share", J.Float (float_of_int weights.(i) /. float_of_int wsum));
             ("predicted_solo_cycles", J.Float r.I.solo_cycles);
             ("predicted_slice_cycles", J.Float r.I.sliced_cycles);
             ("predicted_contended_cycles", J.Float r.I.contended_cycles);
             ("slowdown", J.Float r.I.slowdown);
             ("accel_utilization", J.Float r.I.accel_utilization);
             ("saturated", J.Bool r.I.saturated) ]
         in
         let simj =
           match sim_rows with
           | None -> []
           | Some rows ->
               let s, tput, iso = rows.(i) in
               [ ("sim_p99_cycles", J.Int s.Nsim.Stats.p99_cycles);
                 ("sim_p99_us", J.Float (p99_us_of i));
                 ("sim_mean_cycles", J.Float s.Nsim.Stats.mean_cycles);
                 ("sim_drops", J.Int s.Nsim.Stats.drops);
                 ("throughput_pps", J.Float tput);
                 ("isolation_error_pct", J.Float iso) ]
         in
         let sloj =
           match slo_met with None -> [] | Some met -> [ ("slo_met", J.Bool met.(i)) ]
         in
         J.Obj (base @ simj @ sloj)
       in
       print_endline
         (J.to_string
            (J.Obj
               [ ("nic", J.String nic);
                 ("tenants", J.List (List.init n tenant));
                 ("fairness_index", J.Float fairness);
                 ("fair", J.Bool fair);
                 ("saturated", J.Bool saturated);
                 ("simulated", J.Bool (Option.is_some sim_rows)) ]))
     end
     else begin
       Printf.printf "%d tenants on %s (weights %s):\n" n nic
         (String.concat "," (Array.to_list (Array.map string_of_int weights)));
       (match sim with Error m -> Printf.printf "  [%s]\n" m | Ok _ -> ());
       Array.iteri
         (fun i (r : I.report) ->
           Printf.printf
             "  %-16s w=%-3d solo %9.0f cyc   slice %9.0f cyc   contended %9.0f cyc   slowdown %.2fx   accel-u %.2f%s\n"
             names.(i) weights.(i) r.I.solo_cycles r.I.sliced_cycles r.I.contended_cycles
             r.I.slowdown r.I.accel_utilization
             (if r.I.saturated then "   SATURATED" else "");
           (match sim_rows with
           | None -> ()
           | Some rows ->
               let s, tput, iso = rows.(i) in
               Printf.printf
                 "  %-16s      sim p99 %d cyc (%.1f us)   mean %.0f cyc   tput %.0f pps   drops %d   isolation err %+.1f%%\n"
                 "" s.Nsim.Stats.p99_cycles (p99_us_of i) s.Nsim.Stats.mean_cycles
                 tput s.Nsim.Stats.drops iso);
           match slo_met with
           | Some met when not met.(i) ->
               Printf.printf "  %-16s      p99 %.1f us VIOLATES SLO\n" "" (p99_us_of i)
           | _ -> ())
         reports;
       Printf.printf "fairness: Jain index %.3f -> %s\n" fairness
         (if fair then "FAIR" else "UNFAIR");
       Option.iter
         (fun met ->
           let ok = Array.fold_left (fun a b -> if b then a + 1 else a) 0 met in
           Printf.printf "SLO (p99 <= %.1f us): %s (%d/%d tenants)\n" (Option.get slo)
             (if ok = n then "MET" else "VIOLATED")
             ok n)
         slo_met;
       if saturated then
         Printf.printf
           "warning: aggregate accelerator demand saturates the NIC; contended \
            predictions are lower bounds\n"
     end;
     write_metrics ();
     emit_stats ()

(* ---- corpus --------------------------------------------------------- *)

let corpus_cmd =
  let name_arg =
    let doc = "NF name; omit to list the corpus." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NF" ~doc)
  in
  let doc = "List the bundled NF corpus, or print one NF's DSL source." in
  Cmd.v (Cmd.info "corpus" ~doc)
  @@ let+ name = name_arg in
     match name with
     | None ->
         List.iter
           (fun (e : Clara_nfs.Corpus.entry) ->
             Printf.printf "%-14s %s\n" e.Clara_nfs.Corpus.name
               e.Clara_nfs.Corpus.description)
           Clara_nfs.Corpus.all
     | Some n -> (
         match Clara_nfs.Corpus.find n with
         | Some e -> print_string e.Clara_nfs.Corpus.source
         | None ->
             prerr_endline
               ("clara: unknown NF (try: " ^ String.concat " " Clara_nfs.Corpus.names ^ ")");
             exit 1)

(* -------------------------------------------------------------------- *)

let () =
  let doc = "performance clarity for SmartNIC offloading" in
  let info = Cmd.info "clara" ~version:"0.1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ analyze_cmd; predict_cmd; microbench_cmd; nics_cmd; trace_gen_cmd;
            corpus_cmd; chain_cmd; sweep_cmd; tenants_cmd; trace_cmd; sim_cmd;
            calibrate_cmd; report_cmd; lint_cmd; bounds_cmd ]))
