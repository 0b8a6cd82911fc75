module J = Clara_util.Json
module W = Clara_workload
module L = Clara_lnic
module Nsim = Clara_nicsim
module Lat = Clara_predict.Latency

type components = {
  c_queue : float;
  c_compute : float;
  c_accel_wait : float;
  c_mem : float;
  c_wire : float;
}

let csum c = c.c_queue +. c.c_compute +. c.c_accel_wait +. c.c_mem +. c.c_wire

let zero_components =
  { c_queue = 0.; c_compute = 0.; c_accel_wait = 0.; c_mem = 0.; c_wire = 0. }

let component_names = [ "queue"; "compute"; "accel_wait"; "mem"; "wire" ]
let component_values c = [ c.c_queue; c.c_compute; c.c_accel_wait; c.c_mem; c.c_wire ]

let components_to_json c =
  J.Obj (List.map2 (fun n v -> (n, J.Float v)) component_names (component_values c))

type provenance = {
  timestamp : string;
  git_commit : string;
  ocaml_version : string;
  host : string;
  options_hash : string;
}

type record = {
  nf : string;
  nic : string;
  workload : string;
  seed : int;
  packets : int;
  pred_mean : float;
  pred_p50 : float;
  pred_p99 : float;
  sim_mean : float;
  sim_p50 : float;
  sim_p99 : float;
  gap_mean_pct : float;
  gap_p50_pct : float;
  gap_p99_pct : float;
  pred_comp : components;
  sim_comp : components;
  err_comp : components;
  prov : provenance;
}

let record_to_json r =
  J.Obj
    [
      ("schema", J.Int 1);
      ("nf", J.String r.nf);
      ("nic", J.String r.nic);
      ("workload", J.String r.workload);
      ("seed", J.Int r.seed);
      ("packets", J.Int r.packets);
      ("pred_mean", J.Float r.pred_mean);
      ("pred_p50", J.Float r.pred_p50);
      ("pred_p99", J.Float r.pred_p99);
      ("sim_mean", J.Float r.sim_mean);
      ("sim_p50", J.Float r.sim_p50);
      ("sim_p99", J.Float r.sim_p99);
      ("gap_mean_pct", J.Float r.gap_mean_pct);
      ("gap_p50_pct", J.Float r.gap_p50_pct);
      ("gap_p99_pct", J.Float r.gap_p99_pct);
      ("pred_comp", components_to_json r.pred_comp);
      ("sim_comp", components_to_json r.sim_comp);
      ("err_comp", components_to_json r.err_comp);
      ( "provenance",
        J.Obj
          [
            ("timestamp", J.String r.prov.timestamp);
            ("git_commit", J.String r.prov.git_commit);
            ("ocaml_version", J.String r.prov.ocaml_version);
            ("host", J.String r.prov.host);
            ("options_hash", J.String r.prov.options_hash);
          ] );
    ]

(* --- JSON decoding ------------------------------------------------- *)

let field j k = J.member k j

let str j k =
  match Option.bind (field j k) J.to_string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string field '%s'" k)

let num j k =
  match Option.bind (field j k) J.to_float_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-numeric field '%s'" k)

let int_f j k =
  match Option.bind (field j k) J.to_int_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-integer field '%s'" k)

let ( let* ) = Result.bind

let components_of_json j =
  let* q = num j "queue" in
  let* c = num j "compute" in
  let* a = num j "accel_wait" in
  let* m = num j "mem" in
  let* w = num j "wire" in
  Ok { c_queue = q; c_compute = c; c_accel_wait = a; c_mem = m; c_wire = w }

let sub j k =
  match field j k with
  | Some o -> Ok o
  | None -> Error (Printf.sprintf "missing object field '%s'" k)

let record_of_json j =
  let* nf = str j "nf" in
  let* nic = str j "nic" in
  let* workload = str j "workload" in
  let* seed = int_f j "seed" in
  let* packets = int_f j "packets" in
  let* pred_mean = num j "pred_mean" in
  let* pred_p50 = num j "pred_p50" in
  let* pred_p99 = num j "pred_p99" in
  let* sim_mean = num j "sim_mean" in
  let* sim_p50 = num j "sim_p50" in
  let* sim_p99 = num j "sim_p99" in
  let* gap_mean_pct = num j "gap_mean_pct" in
  let* gap_p50_pct = num j "gap_p50_pct" in
  let* gap_p99_pct = num j "gap_p99_pct" in
  let* pc = sub j "pred_comp" in
  let* pred_comp = components_of_json pc in
  let* sc = sub j "sim_comp" in
  let* sim_comp = components_of_json sc in
  let* ec = sub j "err_comp" in
  let* err_comp = components_of_json ec in
  let* pv = sub j "provenance" in
  let* timestamp = str pv "timestamp" in
  let* git_commit = str pv "git_commit" in
  let* ocaml_version = str pv "ocaml_version" in
  let* host = str pv "host" in
  let* options_hash = str pv "options_hash" in
  Ok
    {
      nf;
      nic;
      workload;
      seed;
      packets;
      pred_mean;
      pred_p50;
      pred_p99;
      sim_mean;
      sim_p50;
      sim_p99;
      gap_mean_pct;
      gap_p50_pct;
      gap_p99_pct;
      pred_comp;
      sim_comp;
      err_comp;
      prov = { timestamp; git_commit; ocaml_version; host; options_hash };
    }

(* --- provenance ----------------------------------------------------- *)

let git_commit () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      let status = Unix.close_process_in ic in
      let line = String.trim line in
      if status = Unix.WEXITED 0 && line <> "" then line else "unknown"

let utc_now () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

let current_provenance ~options_hash =
  {
    timestamp = utc_now ();
    git_commit = git_commit ();
    ocaml_version = Sys.ocaml_version;
    host = (try Unix.gethostname () with _ -> "unknown");
    options_hash;
  }

(* --- running a case -------------------------------------------------- *)

type case = {
  case_nf : string;
  case_nic : string;
  case_packets : int;
  case_payload : int;
  case_flows : int;
  case_rate : float;
  case_tcp : float;
  case_seed : int;
}

let default_case ~nf ~nic =
  {
    case_nf = nf;
    case_nic = nic;
    case_packets = 4000;
    case_payload = 300;
    case_flows = 2000;
    case_rate = 60_000.;
    case_tcp = 0.8;
    case_seed = 42;
  }

let workload_descr c =
  Printf.sprintf "p%d,n%d,f%d,r%.0f,tcp%.2f" c.case_payload c.case_packets
    c.case_flows c.case_rate c.case_tcp

let pct pred sim = if sim = 0. then Float.nan else 100. *. (pred -. sim) /. sim

let run_entry c (entry : Clara_nfs.Corpus.entry) =
  let name = entry.Clara_nfs.Corpus.name in
  let* lnic = L.Targets.of_name c.case_nic in
  let profile =
    W.Profile.make
      ~payload:(W.Dist.Fixed c.case_payload)
      ~packets:c.case_packets ~flow_count:c.case_flows ~rate_pps:c.case_rate
      ~tcp_fraction:c.case_tcp ()
  in
  match
    Clara.analyze_for_profile lnic ~source:entry.Clara_nfs.Corpus.source ~profile
  with
  | Error e -> Error (Printf.sprintf "%s on %s: %s" name c.case_nic e)
  | Ok analysis ->
      let trace = W.Trace.synthesize ~seed:(Int64.of_int c.case_seed) profile in
      (* Predictor side: prediction + component decomposition on the
         same trace and RNG seed, so the totals match exactly. *)
      let pt = Lat.create lnic analysis.Clara.df analysis.Clara.mapping in
      let p = Lat.predict_trace pt trace in
      let att = Lat.attribute_trace pt trace in
      let pall =
        List.find (fun (r : Lat.att_row) -> r.Lat.at_type = "all") att.Lat.att_rows
      in
      (* No queueing / accelerator contention in the static model;
         accelerator service folds into compute to mirror the
         simulator's attribution basis. *)
      let pred_comp =
        {
          c_queue = 0.;
          c_compute = pall.Lat.at_compute +. pall.Lat.at_accel;
          c_accel_wait = 0.;
          c_mem = pall.Lat.at_mem;
          c_wire = pall.Lat.at_wire;
        }
      in
      (* Simulator side: run with a trace sink sized to keep every
         event, then attribute. *)
      let sink = Nsim.Trace.create ~limit:(max 65_536 (c.case_packets * 64)) () in
      let r = Nsim.Engine.run ~sink lnic entry.Clara_nfs.Corpus.ported trace in
      let rep = Nsim.Attribution.analyze sink in
      let sall =
        List.find_opt
          (fun (row : Nsim.Attribution.row) ->
            row.Nsim.Attribution.r_prog = 0 && row.Nsim.Attribution.r_type = "all")
          rep.Nsim.Attribution.rows
      in
      let summary = r.Nsim.Engine.summary in
      (* A row covers every simulated packet or is no row at all. *)
      let* sall =
        let fail fmt = Printf.ksprintf (fun e -> Error (name ^ " on " ^ c.case_nic ^ ": " ^ e)) fmt in
        if Nsim.Trace.dropped sink > 0 then
          fail "the trace ring dropped %d events" (Nsim.Trace.dropped sink)
        else
          match sall with
          | None -> fail "the simulator attributed no packets"
          | Some row when row.Nsim.Attribution.r_count <> summary.Nsim.Stats.packets ->
              fail "attributed %d of %d simulated packets" row.Nsim.Attribution.r_count
                summary.Nsim.Stats.packets
          | Some row -> Ok row
      in
      let sim_comp =
        {
          c_queue = sall.Nsim.Attribution.r_queue;
          c_compute = sall.Nsim.Attribution.r_compute;
          c_accel_wait = sall.Nsim.Attribution.r_accel_wait;
          c_mem = sall.Nsim.Attribution.r_mem;
          c_wire = sall.Nsim.Attribution.r_wire;
        }
      in
      (* Use the attribution's own mean as the sim total so the
         signed component errors sum to the mean gap exactly. *)
      let sim_mean = sall.Nsim.Attribution.r_total in
      let err_comp =
        {
          c_queue = pred_comp.c_queue -. sim_comp.c_queue;
          c_compute = pred_comp.c_compute -. sim_comp.c_compute;
          c_accel_wait = pred_comp.c_accel_wait -. sim_comp.c_accel_wait;
          c_mem = pred_comp.c_mem -. sim_comp.c_mem;
          c_wire = pred_comp.c_wire -. sim_comp.c_wire;
        }
      in
      let sim_p50 = float_of_int summary.Nsim.Stats.p50_cycles in
      let sim_p99 = float_of_int summary.Nsim.Stats.p99_cycles in
      let options_hash =
        Printf.sprintf "%08x"
          (Hashtbl.hash (name, c.case_nic, workload_descr c, c.case_seed))
      in
      Ok
        {
          nf = name;
          nic = c.case_nic;
          workload = workload_descr c;
          seed = c.case_seed;
          packets = sall.Nsim.Attribution.r_count;
          pred_mean = p.Lat.mean_cycles;
          pred_p50 = p.Lat.p50_cycles;
          pred_p99 = p.Lat.p99_cycles;
          sim_mean;
          sim_p50;
          sim_p99;
          gap_mean_pct = pct p.Lat.mean_cycles sim_mean;
          gap_p50_pct = pct p.Lat.p50_cycles sim_p50;
          gap_p99_pct = pct p.Lat.p99_cycles sim_p99;
          pred_comp;
          sim_comp;
          err_comp;
          prov = current_provenance ~options_hash;
        }

(* The simulator raises on programs a device genuinely cannot execute
   (e.g. an accelerator op the target lacks); fold those into the same
   skippable-error channel as analysis failures. *)
let run_case c =
  match Clara_nfs.Corpus.resolve c.case_nf with
  | Error _ as e -> e
  | Ok entry -> (
      let skipped e = Error (Printf.sprintf "%s on %s: %s" entry.Clara_nfs.Corpus.name c.case_nic e) in
      try run_entry c entry with
      | Invalid_argument e | Failure e -> skipped e
      | Nsim.Device.Unrunnable _ as e -> skipped (Printexc.to_string e))

(* --- the ledger ------------------------------------------------------ *)

let append ~path r =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string ~pretty:false (record_to_json r));
      output_char oc '\n')

let load ~path =
  if not (Sys.file_exists path) then Error (Printf.sprintf "no ledger at %s" path)
  else begin
    let ic = open_in path in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let lines = String.split_on_char '\n' content in
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
          if String.trim line = "" then go (i + 1) acc rest
          else
            let* j =
              Result.map_error
                (fun e -> Printf.sprintf "%s:%d: %s" path i e)
                (J.parse line)
            in
            let* r =
              Result.map_error
                (fun e -> Printf.sprintf "%s:%d: %s" path i e)
                (record_of_json j)
            in
            go (i + 1) (r :: acc) rest
    in
    go 1 [] lines
  end

(* --- reporting ------------------------------------------------------- *)

type drift = {
  dr_nf : string;
  dr_nic : string;
  dr_metric : string;
  dr_prev_pct : float;
  dr_latest_pct : float;
}

type group = {
  g_nf : string;
  g_nic : string;
  g_entries : int;
  g_latest : record;
  g_worst : string;
}

type report = { groups : group list; drifts : drift list; threshold_pp : float }

let worst_component r =
  let pairs = List.combine component_names (component_values r.err_comp) in
  fst
    (List.fold_left
       (fun (bn, bv) (n, v) ->
         if Float.abs v > Float.abs bv then (n, v) else (bn, bv))
       ("none", 0.) pairs)

let build_report ?(drift_threshold = 5.0) records =
  (* Group by (nf, nic), preserving append order within and across
     groups (first-seen order). *)
  let keys = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let k = (r.nf, r.nic) in
      if not (Hashtbl.mem tbl k) then begin
        keys := k :: !keys;
        Hashtbl.add tbl k []
      end;
      Hashtbl.replace tbl k (r :: Hashtbl.find tbl k))
    records;
  let groups_unsorted =
    List.rev_map
      (fun k ->
        let entries = List.rev (Hashtbl.find tbl k) in
        let latest = List.nth entries (List.length entries - 1) in
        let drifts =
          match List.rev entries with
          | latest :: prev :: _ ->
              let check metric latest_pct prev_pct acc =
                if
                  Float.is_nan latest_pct || Float.is_nan prev_pct
                  || Float.abs latest_pct <= Float.abs prev_pct +. drift_threshold
                then acc
                else
                  {
                    dr_nf = latest.nf;
                    dr_nic = latest.nic;
                    dr_metric = metric;
                    dr_prev_pct = prev_pct;
                    dr_latest_pct = latest_pct;
                  }
                  :: acc
              in
              []
              |> check "mean" latest.gap_mean_pct prev.gap_mean_pct
              |> check "p50" latest.gap_p50_pct prev.gap_p50_pct
              |> List.rev
          | _ -> []
        in
        ( {
            g_nf = fst k;
            g_nic = snd k;
            g_entries = List.length entries;
            g_latest = latest;
            g_worst = worst_component latest;
          },
          drifts ))
      !keys
  in
  let groups_unsorted = List.rev groups_unsorted in
  let groups =
    List.sort
      (fun (a, _) (b, _) -> compare (a.g_nf, a.g_nic) (b.g_nf, b.g_nic))
      groups_unsorted
  in
  {
    groups = List.map fst groups;
    drifts = List.concat_map snd groups_unsorted;
    threshold_pp = drift_threshold;
  }

let drift_to_json d =
  J.Obj
    [
      ("nf", J.String d.dr_nf);
      ("nic", J.String d.dr_nic);
      ("metric", J.String d.dr_metric);
      ("prev_gap_pct", J.Float d.dr_prev_pct);
      ("latest_gap_pct", J.Float d.dr_latest_pct);
    ]

let report_to_json rep =
  J.Obj
    [
      ("schema", J.Int 1);
      ("drift_threshold_pp", J.Float rep.threshold_pp);
      ( "groups",
        J.List
          (List.map
             (fun g ->
               J.Obj
                 [
                   ("nf", J.String g.g_nf);
                   ("nic", J.String g.g_nic);
                   ("entries", J.Int g.g_entries);
                   ("worst_component", J.String g.g_worst);
                   ("latest", record_to_json g.g_latest);
                 ])
             rep.groups) );
      ("drifts", J.List (List.map drift_to_json rep.drifts));
      ("drifting", J.Bool (rep.drifts <> []));
    ]

let pp_report fmt rep =
  Format.fprintf fmt "calibration report: %d nf x nic group%s@."
    (List.length rep.groups)
    (if List.length rep.groups = 1 then "" else "s");
  Format.fprintf fmt "  %-14s %-10s %7s %10s %9s %9s  %s@." "nf" "nic" "entries"
    "mean-gap%" "p50-gap%" "p99-gap%" "worst-component";
  List.iter
    (fun g ->
      let r = g.g_latest in
      Format.fprintf fmt "  %-14s %-10s %7d %+10.1f %+9.1f %+9.1f  %s (%+.0f cyc)@."
        g.g_nf g.g_nic g.g_entries r.gap_mean_pct r.gap_p50_pct r.gap_p99_pct g.g_worst
        (List.assoc g.g_worst
           (List.combine component_names (component_values r.err_comp))))
    rep.groups;
  if rep.drifts = [] then
    Format.fprintf fmt "drift: none (threshold %+.1f pp)@." rep.threshold_pp
  else
    List.iter
      (fun d ->
        Format.fprintf fmt
          "DRIFT: %s on %s %s gap grew %+.1f%% -> %+.1f%% (threshold %+.1f pp)@."
          d.dr_nf d.dr_nic d.dr_metric d.dr_prev_pct d.dr_latest_pct rep.threshold_pp)
      rep.drifts
