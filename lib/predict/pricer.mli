(** Mapped-node pricing: the {!Clara_dataflow.Cost} context every
    predictor needs, resolved once per (LNIC, dataflow graph, mapping).

    It owns the state lookups a cost context asks for (entry counts for
    [S_state_entries] sizes, byte footprints for cache-fit decisions),
    the state placement Γ with its fallback, and the packet-region
    choice.  Latency, throughput, energy, path enumeration and
    partial-offload estimates all price nodes through it.  For the
    predictor's per-packet walk it also keys a packet's sizes in one int
    ({!size_key}), keeps each node's prices by that key ({!table}) and
    resolves the wire legs once ({!wire}). *)

type t

val create :
  ?mapping:Clara_mapping.Mapping.t -> Clara_lnic.Graph.t -> Clara_dataflow.Graph.t -> t
(** Without a mapping every state is unplaced, so Γ charges it at the
    LNIC's external memory (how the host side of a partial offload keeps
    its state in DRAM); {!price} then has no mapped unit to use. *)

val sizes : t -> Clara_dataflow.Cost.sizes -> Clara_dataflow.Cost.sizes
(** The given sizes with [state_entries] resolved against the program's
    declared states (0 for unknown names). *)

val size_key : Clara_workload.Packet.t -> int
(** Everything of a packet that its sizes depend on, in one int: its
    payload bytes and its header bytes (packet bytes are their sum, the
    opaque trip is 1 and state entries are fixed per pricer).  Two
    packets with one key price alike on every node. *)

val sizes_of_key : t -> int -> Clara_dataflow.Cost.sizes
(** The sizes a {!size_key} stands for, states resolved as in {!sizes}. *)

val packet_sizes : t -> Clara_workload.Packet.t -> Clara_dataflow.Cost.sizes
(** One packet's own sizes: {!sizes_of_key} of its {!size_key}. *)

type sizes_memo
(** The sizes record of the last key it was asked for, so a packet that
    misses several nodes' tables builds its sizes once.  Mutable: one
    per walker. *)

val sizes_memo : t -> sizes_memo
(** A memo holding no key yet. *)

type table
(** One resolved node's prices by {!size_key}: a bounded table of 8
    sets of 2 ways, filled on a miss by {!Clara_dataflow.Cost.evaluate};
    a third key in a set evicts the set's older entry.  Its two arrays
    are each far under 256 words, so tables are minor-heap blocks.  A
    node whose price reads no size
    ({!Clara_dataflow.Cost.size_free_price}) keeps its one price
    instead, so it never misses.  The table pays off while a trace has
    few distinct (payload, header) sizes; on a trace of many, a sized
    node misses nearly every packet and pays the probe and the store on
    top of the evaluation. *)

val table : Clara_dataflow.Cost.resolved -> table
(** An empty table of the resolved node. *)

val table_price : t -> sizes_memo -> table -> int -> Clara_dataflow.Cost.price -> unit
(** [table_price t memo tbl key p] writes into [p] what
    {!Clara_dataflow.Cost.evaluate} writes at [sizes_of_key t key]: on a
    hit it copies the three stored floats, on a miss it evaluates at
    the sizes [memo] holds for [key] (building them first if it holds
    another key) and stores the result.  Allocates only when [memo]
    builds sizes, at most once per key in a row. *)

val mapped_unit : t -> Clara_dataflow.Node.t -> Clara_lnic.Unit_.t
(** @raise Invalid_argument when created without a mapping. *)

val cost_ctx : t -> Clara_lnic.Unit_.t -> Clara_dataflow.Cost.sizes -> Clara_dataflow.Cost.ctx
(** The point-pricing context of the given unit: Γ places state where
    the mapping put it; accelerator-held or unplaced state is charged at
    external memory (a stray instruction touching it, or a software
    replay of an accelerator node, walks the full table in DRAM). *)

val resolve_on : t -> Clara_lnic.Unit_.t -> Clara_dataflow.Node.t -> Clara_dataflow.Cost.resolved option
(** {!Clara_dataflow.Cost.resolve} of the node run on the given unit,
    under the placement of {!cost_ctx} and with the packet regions on
    both sides of the CTM threshold, so one resolution serves every
    packet size. *)

val price_on :
  t ->
  Clara_lnic.Unit_.t ->
  Clara_dataflow.Cost.sizes ->
  Clara_dataflow.Node.t ->
  Clara_dataflow.Cost.price option
(** {!resolve_on} evaluated at [sizes]: equal to
    {!Clara_dataflow.Cost.node_price} in {!cost_ctx}. *)

val resolved : t -> Clara_dataflow.Node.t -> Clara_dataflow.Cost.resolved option
(** The node resolved on its mapped unit, which {!create} does once for
    every node.
    @raise Invalid_argument when created without a mapping. *)

val price :
  t -> Clara_dataflow.Cost.sizes -> Clara_dataflow.Node.t -> Clara_dataflow.Cost.price option
(** {!price_on} the node's mapped unit, from {!resolved}. *)

type wire
(** A target's two wire legs, resolved: the DMA cost function and the
    hub constant of each direction. *)

val wire : Clara_lnic.Graph.t -> wire

val rx_cycles : wire -> bytes:float -> float
(** Receive cost of a packet of [bytes]: the ingress DMA cost function
    plus the ingress hub constant. *)

val tx_cycles : wire -> bytes:float -> float
(** Transmit cost, likewise on the egress side. *)

val wire_cycles : Clara_lnic.Graph.t -> bytes:float -> emitted:bool -> float
(** Receive plus, if the packet is emitted, transmit. *)
