module L = Clara_lnic
module D = Clara_dataflow
module Ir = Clara_cir.Ir
module M = Clara_mapping.Mapping
module W = Clara_workload

type t = {
  lnic : L.Graph.t;
  mapping : M.t option;
  state_entries : string -> float;
  state_footprint : string -> int;
  state_region : string -> int;
}

let create ?mapping lnic (df : D.Graph.t) =
  let entries = Hashtbl.create 8 and footprints = Hashtbl.create 8 in
  (* The first declaration of a name wins. *)
  List.iter
    (fun (o : Ir.state_obj) ->
      if not (Hashtbl.mem entries o.Ir.st_name) then begin
        Hashtbl.add entries o.Ir.st_name (float_of_int o.Ir.st_entries);
        Hashtbl.add footprints o.Ir.st_name (Ir.state_bytes o)
      end)
    (D.Graph.states df);
  let external_mem =
    match Array.find_opt (fun m -> m.L.Memory.level = L.Memory.External) lnic.L.Graph.memories with
    | Some m -> m.L.Memory.id
    | None -> 0
  in
  let state_region s =
    match Option.bind mapping (fun m -> M.placement_of_state m s) with
    | Some (M.In_memory m) -> m
    | Some (M.In_accel _) | None -> external_mem
  in
  {
    lnic;
    mapping;
    state_entries = (fun s -> Option.value ~default:0. (Hashtbl.find_opt entries s));
    state_footprint = (fun s -> Option.value ~default:0 (Hashtbl.find_opt footprints s));
    state_region;
  }

let default_sizes =
  {
    D.Cost.payload_bytes = 300.;
    packet_bytes = 354.;
    header_bytes = 54.;
    state_entries = (fun _ -> 0.);
    opaque_trip = 1.;
  }

let sizes t base = { base with D.Cost.state_entries = t.state_entries }

let packet_sizes t (pkt : W.Packet.t) =
  {
    D.Cost.payload_bytes = float_of_int pkt.W.Packet.payload_bytes;
    packet_bytes = float_of_int (W.Packet.total_bytes pkt);
    header_bytes = float_of_int (W.Packet.header_bytes pkt);
    state_entries = t.state_entries;
    opaque_trip = 1.;
  }

let mapped_unit t (n : D.Node.t) =
  match t.mapping with
  | Some m -> L.Graph.unit_ t.lnic m.M.node_unit.(n.D.Node.id)
  | None -> invalid_arg "Pricer.mapped_unit: no mapping"

let price_on t unit_ sizes n =
  D.Cost.node_price
    (Clara_mapping.Encode.cost_ctx t.lnic unit_ ~sizes ~state_region:t.state_region
       ~state_footprint:t.state_footprint)
    n

let price t sizes n = price_on t (mapped_unit t n) sizes n

let wire_legs lnic ~bytes =
  let params = lnic.L.Graph.params in
  let hub kind =
    match L.Graph.hub lnic kind with
    | Some h -> float_of_int h.L.Hub.per_packet_cycles
    | None -> 0.
  in
  ( L.Cost_fn.eval params.L.Params.wire_ingress bytes +. hub `Ingress,
    L.Cost_fn.eval params.L.Params.wire_egress bytes +. hub `Egress )

let wire_cycles lnic ~bytes ~emitted =
  let rx, tx = wire_legs lnic ~bytes in
  rx +. if emitted then tx else 0.
