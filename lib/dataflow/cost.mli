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

type mode = [ `Read | `Write | `Atomic ]

(** What one CIR instruction charges on one unit.  This is the model's
    one decision about pricing: which op-class cycles, which region
    access and which vcall cost function apply.  Pricing code reads the
    op and vcall tables of [Params] only through {!term}.  The
    simulator's [Device] is exempt by design (it stands in for
    hardware), and so are the executability checks in [Feasibility] and
    [Encode], which test support rather than price anything.

    Two evaluators fold terms: {!node_price} (a point, with the locality
    blend) and [Clara_analysis.Cost_range] (a range over every admissible
    execution). *)
type term =
  | T_op of float  (** Op-class cycles, FPU emulation applied. *)
  | T_access of { op : float; mode : mode; loc : Clara_cir.Ir.loc }
      (** Issue cycles of a load/store/atomic plus one access to [loc]. *)
  | T_core_vcall of { fn : Clara_lnic.Cost_fn.t; v : Clara_cir.Ir.vcall_info }
      (** Software vcall on a general core, plus its state accesses. *)
  | T_accel_vcall of { fn : Clara_lnic.Cost_fn.t; v : Clara_cir.Ir.vcall_info }
      (** Accelerator service; operands live in its SRAM. *)

val term : Clara_lnic.Params.t -> Clara_lnic.Unit_.t -> Clara_cir.Ir.instr -> term option
(** [None] when the unit cannot run the instruction: general compute on
    an accelerator, or a vcall the unit does not implement. *)

val instrs : Node.t -> Clara_cir.Ir.instr list
(** The node's instructions; a vcall node is its one [Vcall]. *)

val node_terms : Clara_lnic.Params.t -> Clara_lnic.Unit_.t -> Node.t -> term list option
(** {!term} of every instruction; [None] if any is [None]. *)

val wire : Clara_lnic.Graph.t -> [ `Rx | `Tx ] -> Clara_lnic.Cost_fn.t * float
(** One wire leg: the DMA cost function of packet bytes and the
    ingress/egress hub's per-packet constant (0 without a hub). *)

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

(** One pricing pass over a node: the total together with its memory and
    accelerator parts. *)
type price = {
  total : float;  (** What {!node_cycles} returns. *)
  mem : float;    (** Memory-region access charges. *)
  accel : float;  (** Accelerator service time. *)
}

val node_price : ctx -> Node.t -> price option
(** The point evaluator: the node's {!term}s on [ctx.exec_unit], summed
    and multiplied by its loop trip (at least one).  An access costs the
    region's locality-blended cache latency plus the bus weight.  [None]
    when some term is [None] or touches a region the unit cannot reach.
    Core op and vcall base cost is the residual [total - mem - accel]:
    consumers that need an exact decomposition take compute that way. *)

val price_terms : ctx -> Node.t -> term list -> price option
(** {!node_price} from the node's already resolved terms on
    [ctx.exec_unit]: callers that price the same node many times resolve
    its terms once. *)

val node_cycles : ctx -> Node.t -> float option
(** [total] of {!node_price}. *)
