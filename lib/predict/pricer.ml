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

(* A packet's sizes are a function of its payload and header bytes
   only, so one int keys them: the payload above 16 bits, the header
   (at most 54 bytes) below. *)
let size_key (pkt : W.Packet.t) = (pkt.W.Packet.payload_bytes lsl 16) lor W.Packet.header_bytes pkt

let sizes_of_key t key =
  let payload = key asr 16 and header = key land 0xffff in
  {
    D.Cost.payload_bytes = float_of_int payload;
    packet_bytes = float_of_int (header + payload);
    header_bytes = float_of_int header;
    state_entries = t.state_entries;
    opaque_trip = 1.;
  }

let packet_sizes t pkt = sizes_of_key t (size_key pkt)

(* No size key is negative, so [empty] marks a key never seen. *)
let empty = min_int

(* The sizes of the key last built, kept by one walker: every miss of a
   packet's nodes shares one record, built on the first. *)
type sizes_memo = { mutable memo_key : int; mutable memo_sizes : D.Cost.sizes }

let sizes_memo t = { memo_key = empty; memo_sizes = sizes_of_key t 0 }

(* A node's prices by size key: [sets] sets of two ways, slot [2s] the
   newer.  [keys] holds [empty] in a slot never filled; [prices] the
   slot's total, mem and accel.  Both blocks stay far under 256 words,
   so a predictor's tables are minor-heap blocks.  A node whose price
   reads no size keeps that one price and no keys. *)
let sets = 8

type table =
  | Size_free of D.Cost.price
  | Sized of { resolved : D.Cost.resolved; keys : int array; prices : float array }

let table resolved =
  match D.Cost.size_free_price resolved with
  | Some p -> Size_free p
  | None -> Sized { resolved; keys = Array.make (2 * sets) empty; prices = Array.make (6 * sets) 0. }

(* A multiplicative hash's top bits pick the set. *)
let[@inline] set_of key = (key * 0x1d8e4e27c47d124f) lsr 60 land (sets - 1)

let[@inline] load prices j (p : D.Cost.price) =
  p.D.Cost.total <- prices.(j);
  p.D.Cost.mem <- prices.(j + 1);
  p.D.Cost.accel <- prices.(j + 2)

let table_price t memo tbl key (p : D.Cost.price) =
  match tbl with
  | Size_free c ->
      p.D.Cost.total <- c.D.Cost.total;
      p.D.Cost.mem <- c.D.Cost.mem;
      p.D.Cost.accel <- c.D.Cost.accel
  | Sized { resolved; keys; prices } ->
      let i = 2 * set_of key in
      if keys.(i) = key then load prices (3 * i) p
      else if keys.(i + 1) = key then load prices ((3 * i) + 3) p
      else begin
        (* A miss: the newer way ages into the older one, whose entry
           goes, and the fresh price takes the newer. *)
        let j = 3 * i in
        keys.(i + 1) <- keys.(i);
        prices.(j + 3) <- prices.(j);
        prices.(j + 4) <- prices.(j + 1);
        prices.(j + 5) <- prices.(j + 2);
        if memo.memo_key <> key then begin
          memo.memo_sizes <- sizes_of_key t key;
          memo.memo_key <- key
        end;
        D.Cost.evaluate resolved memo.memo_sizes p;
        keys.(i) <- key;
        prices.(j) <- p.D.Cost.total;
        prices.(j + 1) <- p.D.Cost.mem;
        prices.(j + 2) <- p.D.Cost.accel
      end

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

type wire = { rx : L.Cost_fn.t; rx_hub : float; tx : L.Cost_fn.t; tx_hub : float }

let wire lnic =
  let rx, rx_hub = D.Cost.wire lnic `Rx and tx, tx_hub = D.Cost.wire lnic `Tx in
  { rx; rx_hub; tx; tx_hub }

let rx_cycles w ~bytes = L.Cost_fn.eval w.rx bytes +. w.rx_hub
let tx_cycles w ~bytes = L.Cost_fn.eval w.tx bytes +. w.tx_hub

let wire_cycles lnic ~bytes ~emitted =
  let w = wire lnic in
  rx_cycles w ~bytes +. if emitted then tx_cycles w ~bytes else 0.
