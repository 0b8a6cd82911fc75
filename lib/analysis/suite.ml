module Ir = Clara_cir.Ir

type report = {
  program : string;
  target : string option;
  diagnostics : Diag.t list;
  sharing : (string * Sharing.verdict) list;
}

let obs = Clara_obs.Registry.default
let c_runs = Clara_obs.Registry.counter obs "analysis.runs"
let c_errors = Clara_obs.Registry.counter obs "analysis.errors"
let c_warnings = Clara_obs.Registry.counter obs "analysis.warnings"
let c_infos = Clara_obs.Registry.counter obs "analysis.infos"
let c_sharing = Clara_obs.Registry.counter obs "analysis.diags.sharing"
let c_feas = Clara_obs.Registry.counter obs "analysis.diags.feasibility"
let c_paths = Clara_obs.Registry.counter obs "analysis.diags.paths"
let c_cost = Clara_obs.Registry.counter obs "analysis.diags.cost"
let c_bounds = Clara_obs.Registry.counter obs "analysis.diags.bounds"

let run ?lnic ?slo_p99_us ?bounds_gap_ratio (p : Ir.program) =
  Clara_obs.Metrics.incr c_runs;
  let sharing, sharing_diags = Sharing.analyze p in
  let feas_diags =
    match lnic with None -> [] | Some g -> Feasibility.analyze ~lnic:g p
  in
  let df = Clara_dataflow.Build.of_ir p in
  let path_diags = Paths.analyze df in
  let cost_diags = Cost_sanity.analyze p in
  let bounds_diags =
    Bounds.lint ?lnic ?slo_p99_us ?gap_ratio:bounds_gap_ratio df
  in
  Clara_obs.Metrics.add c_sharing (List.length sharing_diags);
  Clara_obs.Metrics.add c_feas (List.length feas_diags);
  Clara_obs.Metrics.add c_paths (List.length path_diags);
  Clara_obs.Metrics.add c_cost (List.length cost_diags);
  Clara_obs.Metrics.add c_bounds (List.length bounds_diags);
  let diagnostics =
    List.sort Diag.compare
      (sharing_diags @ feas_diags @ path_diags @ cost_diags @ bounds_diags)
  in
  List.iter
    (fun (d : Diag.t) ->
      Clara_obs.Metrics.incr
        (match d.Diag.severity with
        | Diag.Error -> c_errors
        | Diag.Warn -> c_warnings
        | Diag.Info -> c_infos))
    diagnostics;
  {
    program = p.Ir.prog_name;
    target = Option.map (fun (g : Clara_lnic.Graph.t) -> g.Clara_lnic.Graph.name) lnic;
    diagnostics;
    sharing;
  }

let severity_is s (d : Diag.t) = d.Diag.severity = s
let errors r = List.filter (severity_is Diag.Error) r.diagnostics
let warnings r = List.filter (severity_is Diag.Warn) r.diagnostics
let has_errors r = errors r <> []

let to_json r =
  let module J = Clara_util.Json in
  let count s = List.length (List.filter (severity_is s) r.diagnostics) in
  J.Obj
    [ ("program", J.String r.program);
      ( "target",
        match r.target with None -> J.Null | Some t -> J.String t );
      ( "summary",
        J.Obj
          [ ("errors", J.Int (count Diag.Error));
            ("warnings", J.Int (count Diag.Warn));
            ("infos", J.Int (count Diag.Info)) ] );
      ( "sharing",
        J.Obj
          (List.map
             (fun (s, v) -> (s, J.String (Sharing.verdict_name v)))
             r.sharing) );
      ("diagnostics", J.List (List.map Diag.to_json r.diagnostics)) ]

let pp fmt r =
  Format.fprintf fmt "@[<v>lint %s%s:@," r.program
    (match r.target with None -> "" | Some t -> " (target " ^ t ^ ")");
  List.iter (fun d -> Format.fprintf fmt "  %a@," Diag.pp d) r.diagnostics;
  if r.sharing <> [] then (
    Format.fprintf fmt "  state sharing:@,";
    List.iter
      (fun (s, v) ->
        Format.fprintf fmt "    %-16s %s@," s (Sharing.verdict_name v))
      r.sharing);
  let count s = List.length (List.filter (severity_is s) r.diagnostics) in
  Format.fprintf fmt "  %d error(s), %d warning(s), %d info@]"
    (count Diag.Error) (count Diag.Warn) (count Diag.Info)
