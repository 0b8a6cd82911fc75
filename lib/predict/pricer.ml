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
  mapped : D.Cost.resolved option array;
      (* Node id -> its charges on its mapped unit, resolved once so the
         per-packet walk only evaluates the packet-size terms. *)
}

let site lnic ~state_entries ~state_footprint ~state_region unit_ =
  { D.Cost.lnic;
    exec_unit = unit_;
    state_region;
    state_footprint;
    entries = state_entries;
    packet_regions = Clara_mapping.Encode.packet_regions lnic unit_ }

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
  let state_entries s = Option.value ~default:0. (Hashtbl.find_opt entries s) in
  let state_footprint s = Option.value ~default:0 (Hashtbl.find_opt footprints s) in
  {
    lnic;
    mapping;
    state_entries;
    state_footprint;
    state_region;
    mapped =
      (match mapping with
      | None -> [||]
      | Some m ->
          Array.map
            (fun (n : D.Node.t) ->
              D.Cost.resolve
                (site lnic ~state_entries ~state_footprint ~state_region
                   (L.Graph.unit_ lnic m.M.node_unit.(n.D.Node.id)))
                n)
            df.D.Graph.nodes);
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

let cost_ctx t unit_ sizes =
  Clara_mapping.Encode.cost_ctx t.lnic unit_ ~sizes ~state_region:t.state_region
    ~state_footprint:t.state_footprint

let resolve_on t unit_ n =
  D.Cost.resolve
    (site t.lnic ~state_entries:t.state_entries ~state_footprint:t.state_footprint
       ~state_region:t.state_region unit_)
    n

let price_on t unit_ sizes n = Option.map (fun r -> D.Cost.price r sizes) (resolve_on t unit_ n)

let resolved t (n : D.Node.t) =
  match t.mapping with
  | Some _ -> t.mapped.(n.D.Node.id)
  | None -> invalid_arg "Pricer.resolved: no mapping"

let price t sizes n = Option.map (fun r -> D.Cost.price r sizes) (resolved t n)

let wire_legs lnic ~bytes =
  let leg dir =
    let fn, hub = D.Cost.wire lnic dir in
    L.Cost_fn.eval fn bytes +. hub
  in
  (leg `Rx, leg `Tx)

let wire_cycles lnic ~bytes ~emitted =
  let rx, tx = wire_legs lnic ~bytes in
  rx +. if emitted then tx else 0.
