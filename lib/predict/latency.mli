(** Per-packet latency prediction (§3.5).

    Given the mapped NF, Clara simulates how each workload packet
    traverses the parameterized LNIC: guards resolve against the packet
    (protocol, flags) and against tracked abstract state (a flow-table
    membership set, so the first packet of a flow really takes the miss
    path); node costs are priced by {!Clara_dataflow.Cost} with the
    packet's own sizes; wire/hub constants bracket the path.  Averaging
    over a trace yields the Figure 3 "Predicted" series.

    There is one walk per packet, {!Clara_dataflow.Graph.walk}, the
    same walk {!Symexec} replays per path.  {!packet_latency},
    {!packet_components} and {!perfetto_timeline} are sinks over it that
    keep the total, the component split or one span per node.

    {!create} resolves what is fixed per predictor: every mapped node's
    charges (through {!Pricer}), each node's {!Pricer.table} of prices
    by packet size, the eSwitch miss regime's software price and its
    table, and the two wire legs.  The walk then keys each node's table
    on the packet's {!Pricer.size_key} and evaluates a node only on a
    table miss, so two packets of one payload and header size cost one
    evaluation per node between them, and a node whose price reads no
    size costs none; a packet that misses builds its sizes record once,
    for all its nodes.  Every price is the one
    {!Clara_dataflow.Cost.evaluate} gives at the packet's sizes.

    {!create} also resolves the tracked state: one small array with an
    entry per declared state name, holding the last declaration's
    flow-membership LRU and whether any declaration of the name is an
    LPM table (provisioned, so its matches succeed).  Table-hit guards,
    executed [table_update]s and {!reset_state} read that array by a
    [String.equal] scan that returns the entry itself, so a lookup
    neither hashes nor allocates; the walk computes the packet's flow
    key once, for all of them. *)

type config = {
  include_wire : bool;
      (** Charge wire DMA + hub constants per packet (on by default);
          chains turn this off per stage and charge the wire once. *)
  flow_cache_hit_ratio : float option;
      (** Off-path targets only: pin the eSwitch flow-cache hit ratio
          (clamped to [0,1]) instead of tracking per-flow hits with an
          LRU sized by the eSwitch SRAM ([None], the default).  A miss
          pays the fabric upcall plus the software cost of the node on
          the Arm cores; a hit pays only the hardware fast-path price.
          Ignored on on-path / host targets. *)
}

val default_config : config

val guard_prior : Clara_cir.Ir.guard -> float
(** The odds of a guard that neither the packet nor tracked state
    decides: a payload scan match 0.1, a counter crossing its threshold
    0.05, any other (opaque) guard 0.5.  The walk draws such guards at
    these odds from a fixed-seed RNG, and the analysis's guard
    probabilities use the same values. *)

type t

exception Unpriceable of { node : int; op : string; unit_ : string }
(** The mapping put node [node] (a vcall named [op], or ["compute"]) on
    the unit named [unit_], which cannot run it, so the model has no
    price for it there.  A mapping from {!Clara_mapping.Encode} never
    does; a hand-built one can. *)

val create :
  ?config:config ->
  Clara_lnic.Graph.t ->
  Clara_dataflow.Graph.t ->
  Clara_mapping.Mapping.t ->
  t
(** @raise Unpriceable when a mapped node cannot run on its unit, found
    here for every node, before any packet. *)

type per_packet = { cycles : float; emitted : bool }

val packet_latency : t -> Clara_workload.Packet.t -> per_packet
(** Stateful: table-hit guards depend on the packets seen so far. *)

val reset_state : t -> unit
(** Forget tracked flow state (fresh run). *)

type prediction = {
  mean_cycles : float;
  p50_cycles : float;
  p99_cycles : float;
  tcp_mean : float;
  udp_mean : float;
  syn_mean : float;
  emitted_fraction : float;
}

val summarize :
  Clara_workload.Trace.t -> (Clara_workload.Packet.t -> per_packet) -> prediction
(** Applies the per-packet function to every packet of the trace in
    order and summarizes: overall and per-protocol means, nearest-rank
    p50/p99 and the emitted fraction (NaN means for absent classes, an
    all-zero record for an empty trace). *)

val predict_trace : t -> Clara_workload.Trace.t -> prediction
(** Resets state, then [summarize]s {!packet_latency} over the trace. *)

val pp_prediction : Format.formatter -> prediction -> unit

(** {2 Latency attribution} — the prediction decomposed into where the
    cycles go (compute / memory / accelerator / wire).  The predictor
    models no queueing, so unlike the simulator's attribution there is
    no queue component. *)

type pkt_components = {
  pc_total : float;
      (** Bit-identical to {!packet_latency}'s [cycles] at the same
          state: both sum the same walk's node charges in the same
          order. *)
  pc_compute : float;
      (** Residual [total - mem - accel - wire], so the components sum
          to [pc_total] exactly. *)
  pc_mem : float;
  pc_accel : float;
  pc_wire : float;
  pc_emitted : bool;
}

val packet_components : t -> Clara_workload.Packet.t -> pkt_components
(** Stateful, like {!packet_latency}.  The components sink: the walk
    sums each node's total, memory and accelerator charges into one
    scratch price the predictor holds, with a [charge] built at
    {!create}; this wraps those sums and the wire legs in a record.
    {!attribute_trace} reads the same sums without the record. *)

type att_row = {
  at_type : string;   (** "tcp-syn", "tcp", "udp", "other" or "all". *)
  at_count : int;
  at_compute : float;  (** Mean cycles per packet of this type. *)
  at_mem : float;
  at_accel : float;
  at_wire : float;
  at_total : float;    (** Sum of the four component means. *)
  at_dominant : string;
      (** Largest component: "compute", "memory", "accel" or "wire". *)
}

type attribution = {
  att_rows : att_row list;  (** Per-type rows, then the "all" row. *)
  att_mean : float;
      (** Equals {!predict_trace}'s [mean_cycles] for the same trace. *)
}

val attribute_trace : t -> Clara_workload.Trace.t -> attribution
(** Resets state and re-walks the trace with the same RNG seed, so the
    totals match {!predict_trace} exactly.  Counts and the four
    component sums live in five fixed slots (the four types and "all"),
    each summed in trace order, so a packet costs no table lookup and
    no record; the rows are what a per-type fold of
    {!packet_components} gives, bit for bit. *)

val pp_attribution : Format.formatter -> attribution -> unit

val perfetto_timeline : t -> Clara_workload.Trace.t -> Clara_util.Json.t
(** The analytic per-packet timeline (packets end-to-end on one track,
    wire + per-node spans) as Chrome/Perfetto trace-event JSON — the
    predictor-side counterpart of [clara trace]'s export. *)
