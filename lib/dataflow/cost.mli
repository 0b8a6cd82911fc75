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

    Two evaluators fold terms: the point evaluator (the locality blend
    at one set of sizes) and [Clara_analysis.Cost_range] (a range over
    every admissible execution).  The point evaluator runs in two steps.
    {!resolve} does everything that does not depend on the packet, once
    per (node, unit, placement): op cycles, the Γ-placed state and local
    accesses, the packet region on each side of the CTM threshold, and
    state-entry sizes; a vcall whose sizes need nothing from the packet
    is charged in full there.  It reads {!cache_locality} then, so a
    change to the discount takes effect at the next resolve.
    {!evaluate} finishes the packet-size terms (the cache fit of packet
    accesses, the remaining vcall cost functions, the loop trip) into a
    caller-owned {!price}.  {!cycles} is the two in a row. *)
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

val wire : Clara_lnic.Graph.t -> [ `Rx | `Tx ] -> Clara_lnic.Cost_fn.t * float
(** One wire leg: the DMA cost function of packet bytes and the
    ingress/egress hub's per-packet constant (0 without a hub). *)

val cache_locality : float ref
(** The model's one free parameter: the locality discount applied to
    cache hit ratios (default 0.85, calibrated so Figure 3a's error
    matches the paper's ~12%).  The [ablations] bench sweeps it.  Read
    by {!resolve}: a {!resolved} node keeps the value it was resolved
    with, so set it before building the analysis or predictor. *)

(** Packet data is held in cluster memory (the CTM) while the packet
    fits the threshold, and in external memory once it spills (§3.2):
    the one rule that picks a packet's region, kept once. *)
type 'r packet_regions = {
  fits : 'r;  (** Region for packets of at most [ctm_threshold] bytes. *)
  spills : 'r;  (** Region for larger packets. *)
  ctm_threshold : int;
}

val packet_region : 'r packet_regions -> packet_bytes:float -> 'r

(** What {!resolve} needs: everything a price depends on but the packet.
    The one pricing context: the mapping ILP, greedy and the predictor
    all price on a site that [Clara_mapping.Encode.site] builds. *)
type site = {
  lnic : Clara_lnic.Graph.t;
  exec_unit : Clara_lnic.Unit_.t;
  state_region : string -> int;     (** Γ: state object → memory id. *)
  state_footprint : string -> int;  (** Bytes, for cache-fit decisions. *)
  entries : string -> float;  (** Declared entries, for [S_state_entries]. *)
  packet_regions : int packet_regions;  (** Memory ids. *)
}

(** One pricing pass over a node: the total together with its memory and
    accelerator parts.  {!evaluate} overwrites one in place, so a caller
    that prices many nodes reuses a single record. *)
type price = {
  mutable total : float;  (** What {!cycles} returns. *)
  mutable mem : float;    (** Memory-region access charges. *)
  mutable accel : float;  (** Accelerator service time. *)
}

type resolved
(** A node's charges on one site, all but the packet-size terms done. *)

val resolve : site -> Node.t -> resolved option
(** The node's {!term}s on [site.exec_unit], resolved.  An access costs
    the region's locality-blended cache latency plus the bus weight.
    [None] when some term is [None] or touches a region the unit cannot
    reach (for a packet access: either packet region). *)

val evaluate : resolved -> sizes -> price -> unit
(** Overwrites the price with the node's charges at these sizes, summed
    and multiplied by its loop trip (at least one).  [sizes.state_entries]
    is read only by a size that mixes state entries with packet terms;
    pass the site's [entries].  Allocates no
    major-heap block. *)

val price : resolved -> sizes -> price
(** {!evaluate} into a fresh record. *)

val size_free_price : resolved -> price option
(** The node's price at every size, when none of its charges and not its
    loop trip depend on the packet ([None] otherwise): what {!evaluate}
    gives at any sizes, bit for bit. *)

val cycles : site -> sizes -> Node.t -> float option
(** [total] of {!resolve} then {!price}: the point evaluator at one set
    of sizes, the mapping's objective.  The packet region is picked at
    [sizes.packet_bytes], so when the unit reaches both regions the
    price is the one a site holding only the picked region gives.
    Core op and vcall base cost is the residual [total - mem - accel]
    of a {!price}: consumers that need an exact decomposition take
    compute that way. *)
