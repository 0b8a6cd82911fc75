(** The cost model shared by the mapping ILP and the predictor.

    Prices a CIR instruction or a dataflow node on a given compute unit,
    under a given memory placement (Γ) and concrete sizes.  This is where
    the paper's per-component observations meet: op-class cycle tables,
    accelerator cost functions, region access latencies with NUMA weights,
    cache hits for small footprints, FPU emulation on cores without
    hardware floats. *)

(** Concrete values for symbolic sizes, from a workload average (mapping)
    or an individual packet (prediction). *)
type sizes = {
  payload_bytes : float;
  packet_bytes : float;
  header_bytes : float;
  state_entries : string -> float;
  opaque_trip : float;  (** Assumed trips for un-coarsened while loops. *)
}

val eval_size : sizes -> Clara_cir.Ir.size_expr -> float

val cache_locality : float ref
(** The model's one free parameter: the locality discount applied to
    cache hit ratios (default 0.85, calibrated so Figure 3a's error
    matches the paper's ~12%).  The [ablations] bench sweeps it. *)

type ctx = {
  lnic : Clara_lnic.Graph.t;
  exec_unit : Clara_lnic.Unit_.t;
  state_region : string -> int;   (** Γ: state object → memory id. *)
  state_footprint : string -> int;  (** Bytes, for cache-fit decisions. *)
  packet_region : int;            (** Memory id holding packet data. *)
  sizes : sizes;
}

val mem_access_cycles :
  ctx -> mode:[ `Read | `Write | `Atomic ] -> mem_id:int -> footprint:int -> float option
(** Region base latency (cache-adjusted when the footprint fits) plus the
    NUMA weight of the unit's bus; [None] when the unit cannot reach the
    region. *)

(** One pricing pass over a node: the total together with its memory and
    accelerator parts. *)
type price = {
  total : float;  (** What {!node_cycles} returns. *)
  mem : float;    (** Memory-region access charges. *)
  accel : float;  (** Accelerator service time. *)
}

val node_price : ctx -> Node.t -> price option
(** Sum over the node's instructions, multiplied by its loop trip; [None]
    when the unit cannot execute some instruction (e.g. general compute
    on an accelerator, or a vcall the accelerator does not implement).
    Core op and vcall base cost is the residual [total - mem - accel]:
    consumers that need an exact decomposition take compute that way. *)

val node_cycles : ctx -> Node.t -> float option
(** [total] of {!node_price}. *)
