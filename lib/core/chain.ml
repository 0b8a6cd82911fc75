module W = Clara_workload
module L = Clara_lnic
module Lat = Clara_predict.Latency

type t = { stages : Pipeline.analysis list; lnic : Clara_lnic.Graph.t }

let obs = Clara_obs.Registry.default

let analyze ?options lnic ~sources ~profile =
  Clara_obs.Registry.span obs "chain" @@ fun () ->
  let rec go acc i = function
    | [] -> Ok { stages = List.rev acc; lnic }
    | src :: rest -> (
        match Pipeline.analyze_for_profile ?options lnic ~source:src ~profile with
        | Ok a -> go (a :: acc) (i + 1) rest
        | Error e -> Error (Printf.sprintf "stage %d: %s" i e))
  in
  if sources = [] then Error "empty chain" else go [] 0 sources

let fabric_hop_cycles (lnic : L.Graph.t) =
  match L.Graph.hub lnic `Fabric with
  | Some h -> float_of_int h.L.Hub.per_packet_cycles
  | None -> 0.

let predict ?(config = Lat.default_config) t (trace : W.Trace.t) =
  Clara_obs.Registry.span obs "chain-predict" @@ fun () ->
  (* Per-stage predictors without wire costs; the chain charges the wire
     once and a fabric hop between stages. *)
  let stage_config = { config with Lat.include_wire = false } in
  let predictors =
    List.map (fun (a : Pipeline.analysis) ->
        Lat.create ~config:stage_config a.Pipeline.lnic a.Pipeline.df a.Pipeline.mapping)
      t.stages
  in
  List.iter Lat.reset_state predictors;
  let hop = fabric_hop_cycles t.lnic in
  Lat.summarize trace (fun pkt ->
      let rec run cost hops = function
        | [] -> (cost, hops, true)
        | p :: rest ->
            let r = Lat.packet_latency p pkt in
            let cost = cost +. r.Lat.cycles in
            if r.Lat.emitted then
              match rest with
              | [] -> (cost, hops, true)
              | _ -> run cost (hops + 1) rest
            else (cost, hops, false)
      in
      let compute, hops, emitted = run 0. 0 predictors in
      let cycles =
        compute +. (float_of_int hops *. hop) +. Lat.wire_cycles t.lnic pkt ~emitted
      in
      { Lat.cycles; emitted })

let stage_names t =
  List.map
    (fun (a : Pipeline.analysis) ->
      a.Pipeline.df.Clara_dataflow.Graph.cir.Clara_cir.Ir.prog_name)
    t.stages
