(** Mapped-node pricing: the {!Clara_dataflow.Cost} context every
    predictor needs, resolved once per (LNIC, dataflow graph, mapping).

    It owns the state lookups a cost context asks for (entry counts for
    [S_state_entries] sizes, byte footprints for cache-fit decisions),
    the state placement Γ with its fallback, and the packet-region
    choice.  Latency, throughput, energy, path enumeration and
    partial-offload estimates all price nodes through it. *)

type t

val create :
  ?mapping:Clara_mapping.Mapping.t -> Clara_lnic.Graph.t -> Clara_dataflow.Graph.t -> t
(** Without a mapping every state is unplaced, so Γ charges it at the
    LNIC's external memory (how the host side of a partial offload keeps
    its state in DRAM); {!price} then has no mapped unit to use. *)

val sizes : t -> Clara_dataflow.Cost.sizes -> Clara_dataflow.Cost.sizes
(** The given sizes with [state_entries] resolved against the program's
    declared states (0 for unknown names). *)

val packet_sizes : t -> Clara_workload.Packet.t -> Clara_dataflow.Cost.sizes
(** One packet's own sizes, states resolved as in {!sizes}. *)

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

val wire_legs : Clara_lnic.Graph.t -> bytes:float -> float * float
(** Receive and transmit cost of a packet of [bytes]: the wire DMA cost
    functions plus the ingress and egress hub constants. *)

val wire_cycles : Clara_lnic.Graph.t -> bytes:float -> emitted:bool -> float
(** Receive plus, if the packet is emitted, transmit. *)
