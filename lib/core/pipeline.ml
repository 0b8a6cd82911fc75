module D = Clara_dataflow
module Ir = Clara_cir.Ir
module W = Clara_workload

(* Every phase runs inside an Obs span so `clara --stats` (and the bench
   harness) can attribute wall-clock to parse/lower, coarsening, dataflow
   construction, ILP mapping and prediction. *)
let obs = Clara_obs.Registry.default

type analysis = {
  lnic : Clara_lnic.Graph.t;
  df : Clara_dataflow.Graph.t;
  mapping : Clara_mapping.Mapping.t;
  pattern_report : Clara_cir.Patterns.report;
  options : Clara_mapping.Mapping.options;
  lint : Clara_analysis.Suite.report;
  sizes : D.Cost.sizes;
  prob : Clara_cir.Ir.guard -> float;
}

let sizes_of_profile (p : W.Profile.t) =
  {
    D.Cost.payload_bytes = W.Profile.mean_payload p;
    packet_bytes = W.Profile.mean_packet_bytes p;
    header_bytes = W.Profile.mean_header_bytes p;
    state_entries = (fun _ -> 0.); (* resolved from the program by Encode *)
    opaque_trip = 1.;
  }

let prob_of_profile (p : W.Profile.t) =
  let tcp = p.W.Profile.tcp_fraction in
  (* Table-hit fraction: each packet of a flow after the first hits, so
     hit ~= 1 - flows/packets. *)
  let hit =
    Float.max 0.5
      (1. -. (float_of_int p.W.Profile.flow_count /. float_of_int p.W.Profile.packets))
  in
  let syn =
    if p.W.Profile.new_flow_syn then
      Float.min 1.
        (float_of_int p.W.Profile.flow_count /. float_of_int p.W.Profile.packets)
    else 0.
  in
  let rec prob (g : Ir.guard) =
    let v =
      match g with
      | Ir.G_proto 6 -> tcp
      | Ir.G_proto 17 -> Float.max 0. (1. -. tcp)
      | Ir.G_proto _ -> Float.max 0. (1. -. tcp) *. 0.1
      | Ir.G_flag 2 -> syn
      | Ir.G_flag _ -> 0.5
      | Ir.G_table_hit _ -> hit
      | Ir.G_scan_match | Ir.G_count_exceeds | Ir.G_opaque ->
          Clara_predict.Latency.guard_prior g
      | Ir.G_not g' -> 1. -. prob g'
      | Ir.G_or (a, b) ->
          (* Guards in one disjunction are mutually exclusive in practice
             (proto == 6 || proto == 17); cap at 1. *)
          Float.min 1. (prob a +. prob b)
    in
    Float.max 0. (Float.min 1. v)
  in
  prob

let analyze_for_profile ?(options = Clara_mapping.Mapping.default_options) lnic ~source
    ~profile =
  Clara_obs.Registry.span obs "pipeline" @@ fun () ->
  let sizes = sizes_of_profile profile and prob = prob_of_profile profile in
  match Clara_obs.Registry.span obs "lower" (fun () -> Clara_cir.Lower.of_source source) with
  | Error _ as e -> e
  | Ok ir -> (
      let ir, pattern_report =
        Clara_obs.Registry.span obs "coarsen" (fun () -> Clara_cir.Patterns.run ir)
      in
      (* Lint before mapping: diagnostics never fail the pipeline (that
         is `clara lint`'s job), but the sharing verdicts feed the
         encoder unless the caller supplied its own. *)
      let lint =
        Clara_obs.Registry.span obs "lint" (fun () ->
            Clara_analysis.Suite.run ~lnic ir)
      in
      let options =
        if options.Clara_mapping.Mapping.sharing = [] then
          { options with
            Clara_mapping.Mapping.sharing = lint.Clara_analysis.Suite.sharing }
        else options
      in
      let df = Clara_obs.Registry.span obs "dataflow" (fun () -> D.Build.of_ir ir) in
      match
        Clara_obs.Registry.span obs "mapping" (fun () ->
            Clara_mapping.Encode.map_nf ~options lnic df ~sizes ~prob)
      with
      | Error e -> Error ("mapping: " ^ e)
      | Ok mapping -> Ok { lnic; df; mapping; pattern_report; options; lint; sizes; prob })

let predict ?config a trace =
  Clara_obs.Registry.span obs "predict" @@ fun () ->
  let p = Clara_predict.Latency.create ?config a.lnic a.df a.mapping in
  Clara_predict.Latency.predict_trace p trace

let predict_profile ?config ?(seed = 42L) a profile =
  predict ?config a (W.Trace.synthesize ~seed profile)

let device_placement_of_state a s =
  match Clara_mapping.Mapping.placement_of_state a.mapping s with
  | None -> None
  | Some (Clara_mapping.Mapping.In_accel _) -> Some Clara_nicsim.Device.P_flow_cache
  | Some (Clara_mapping.Mapping.In_memory m) -> (
      match (Clara_lnic.Graph.memory a.lnic m).Clara_lnic.Memory.level with
      | Clara_lnic.Memory.Cluster -> Some Clara_nicsim.Device.P_ctm
      | Clara_lnic.Memory.Internal -> Some Clara_nicsim.Device.P_imem
      | Clara_lnic.Memory.External | Clara_lnic.Memory.Local ->
          Some Clara_nicsim.Device.P_emem)
