(** Static per-packet-type latency bounds (pass 5, [clara bounds]).

    A forward abstract interpretation of the CIR CFG over the
    {!Interval} domain, one fold in {!Clara_dataflow.Graph.t.order},
    computes per traffic class how many times each block can execute
    for one packet (loop trips inferred from guards and payload-length
    ranges; branch arms contradicted by the class's guard facts killed;
    the code after a loop may be skipped when the class's facts let its
    body return), then
    multiplies the counts into
    {!Cost_range} node envelopes to yield sound
    per-axis cycle intervals on the [queue; compute; accel_wait; mem;
    wire] basis the calibration ledger uses.

    Soundness contract: for every admissible execution (any placement,
    any packet in the size envelope, any cache/table regime, bounded
    ingress queueing), the simulated per-type mean latency lies within
    [tb_total] — the bench [bounds] section enforces this for every
    example NF on every target.

    Diagnostics:
    - CLARA401 (error): a reachable loop with no statically derivable
      iteration bound — worst-case latency is unbounded.
    - CLARA402 (warn): finite bounds whose service-interval ratio
      exceeds a configurable threshold — the program's performance is
      real but {e unclear}, depending heavily on data-dependent paths.
    - CLARA403 (error): the best-case total already exceeds the p99
      SLO — a provable violation on every packet. *)

type axes = {
  a_queue : Interval.t;       (** Ingress queueing allowance [0, hi]. *)
  a_compute : Interval.t;     (** Core + accelerator service. *)
  a_accel_wait : Interval.t;  (** Accelerator contention allowance. *)
  a_mem : Interval.t;
  a_wire : Interval.t;        (** DMA + hub, rx always, tx emit-gated. *)
}

type type_bounds = {
  tb_type : string;     (** "all", "tcp", "tcp-syn", "udp", "other". *)
  tb_axes : axes;
  tb_service : Interval.t;  (** compute + mem + wire (no contention). *)
  tb_total : Interval.t;    (** service + queue/accel-wait allowances. *)
}

type t = {
  bt_prog : string;
  bt_target : string;
  bt_freq_mhz : int;            (** For cycles -> us conversion. *)
  bt_per_type : type_bounds list;
  bt_unbounded_loops : int list;
}

val mtu_payload : float

val analyze :
  ?payload_max:float -> lnic:Clara_lnic.Graph.t -> Clara_cir.Ir.program -> t

val find : t -> string -> type_bounds option

val unbounded_loops : ?payload_max:float -> Clara_dataflow.Graph.t -> int list
(** Loop headers in the block order with no finite trip ceiling, in
    block id order. *)

type verdict = Provably_meets | Provably_violates | Unclear

val verdict_name : verdict -> string
val slo_cycles : t -> slo_p99_us:float -> float

val verdict : t -> slo_p99_us:float -> verdict
(** Judged on the "all" row: [hi <= slo] proves the SLO holds for every
    packet; [lo > slo] proves no packet can meet it. *)

val default_gap_ratio : float

val lint :
  ?lnic:Clara_lnic.Graph.t ->
  ?slo_p99_us:float ->
  ?gap_ratio:float ->
  Clara_dataflow.Graph.t ->
  Diag.t list
(** CLARA401 needs no target; CLARA402/403 require [?lnic]. *)

val us_of : t -> float -> float
val axis_list : axes -> (string * Interval.t) list
val to_json : t -> Clara_util.Json.t
val pp : Format.formatter -> t -> unit
