(** Idealized throughput estimation (§3.5, §6).

    A bottleneck model over the mapped NF: each hardware resource
    (general-core pool per island class, each accelerator, the wire DMA
    engines) is charged its expected per-packet cycles; its capacity is
    its parallelism × clock.  Sustainable throughput is the minimum of
    capacity/demand over resources — "idealized" because queueing and
    batching effects are ignored, exactly the paper's framing. *)

type bottleneck = {
  resource : string;          (** Unit or pool name. *)
  cycles_per_packet : float;  (** Expected demand. *)
  parallelism : int;          (** Hardware threads (1 for accelerators). *)
  max_pps : float;            (** This resource's own ceiling. *)
}

type t = {
  max_pps : float;           (** min over resources. *)
  gbps_at_mean_packet : float;
  bottleneck : bottleneck;
  resources : bottleneck list;  (** All resources, ascending [max_pps]. *)
}

val estimate :
  sizes:Clara_dataflow.Cost.sizes ->
  prob:(Clara_cir.Ir.guard -> float) ->
  Clara_lnic.Graph.t ->
  Clara_dataflow.Graph.t ->
  Clara_mapping.Mapping.t ->
  t
(** Demand is priced at [sizes] and weighted by the expected visits
    under [prob] ({!Clara_dataflow.Graph.visits}): pass the analysis's
    own, the values its mapping was solved at.  The wire DMA carries
    every packet in and, out, only the emitted share. *)

val pp : Format.formatter -> t -> unit

val latency_at_rate :
  sizes:Clara_dataflow.Cost.sizes ->
  prob:(Clara_cir.Ir.guard -> float) ->
  base_cycles:float ->
  rate_pps:float ->
  Clara_lnic.Graph.t ->
  Clara_dataflow.Graph.t ->
  Clara_mapping.Mapping.t ->
  float option
(** Predicted mean latency (cycles) at an offered load: the uncontended
    baseline plus per-resource queueing delay from an M/M/k approximation
    (Sakasegawa) over each resource's utilization — the §6 "queueing
    capacity and discipline" extension.  [None] when the rate exceeds the
    bottleneck capacity (the system is unstable; latency diverges). *)
