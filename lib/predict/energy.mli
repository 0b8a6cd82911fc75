(** Energy prediction (§6 future work; motivated by E3's observation
    that NIC cores are more energy-efficient than server CPUs).

    A simple activity-based model: every compute unit has an active power
    draw; a packet's energy is Σ (cycles on unit / unit clock) × power,
    plus the NIC's idle power amortized over the offered rate.  Node
    cycles are weighted by their expected visits; the wire DMA moves
    every packet in and the emitted share out.  Per-unit
    powers default to representative values (NPU ≈ 0.35 W, ARM core
    ≈ 1.8 W, Xeon core ≈ 9 W, accelerators ≈ 0.2–0.5 W) and can be
    overridden. *)

type power_table = {
  general_core_w : float;
  accel_w : Clara_lnic.Unit_.accel_kind -> float;
  idle_w : float;            (** Board idle draw. *)
  dma_w_per_gbps : float;    (** Wire DMA energy per Gbps moved. *)
}

val default_powers : Clara_lnic.Graph.t -> power_table
(** Heuristic per-target defaults keyed on core clock (NPU-class vs
    ARM-class vs Xeon-class). *)

type t = {
  nj_per_packet : float;        (** Dynamic energy per packet. *)
  watts_at_rate : float;        (** Idle + dynamic power at the profile rate. *)
  nj_per_packet_total : float;  (** Including the amortized idle share. *)
  breakdown : (string * float) list;  (** nJ per packet per resource. *)
}

val estimate :
  ?powers:power_table ->
  sizes:Clara_dataflow.Cost.sizes ->
  prob:(Clara_cir.Ir.guard -> float) ->
  rate_pps:float ->
  Clara_lnic.Graph.t ->
  Clara_dataflow.Graph.t ->
  Clara_mapping.Mapping.t ->
  t

val pp : Format.formatter -> t -> unit
