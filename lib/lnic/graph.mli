(** The logical SmartNIC: an annotated graph ⟨V,E⟩ (§3.1).

    V unions compute units, memory regions and switching hubs; E carries
    memory buses (NUMA-weighted), hierarchy edges, pipeline edges and hub
    attachments.  The graph plus its {!Params.t} is everything Clara knows
    about a NIC backend. *)

(** Where the NIC's general cores sit relative to the wire (ROADMAP
    open item 1: cross-architecture clarity).

    - [On_path]: every packet flows through the cores (NPU/ASIC style);
      accelerator misses stay in the same clock domain.
    - [Off_path]: a hardware eSwitch fast path handles cached flows at
      line rate and only flow-cache {e misses} are upcalled to the core
      complex (BlueField/DPU style) — predictions become two-regime.
    - [Host_only]: no NIC at all; the baseline x86 path. *)
type arch = On_path | Off_path | Host_only

val arch_name : arch -> string
(** Stable lower-case name ("on-path", "off-path", "host") — printed by
    [clara nics] and used in reports. *)

type index
(** The unit-to-memory answers ({!access_weight}, {!reachable_memories},
    {!local_region}, {!max_access_weight}), precomputed from [links]. *)

type t = private {
  name : string;
  arch : arch;
  units : Unit_.t array;
  memories : Memory.t array;
  hubs : Hub.t array;
  links : Link.t list;
  params : Params.t;
  index : index;
}
(** Private so that every graph comes from {!make}, which builds [index]
    from [links]: a functional update could otherwise change the links,
    units or memories and leave the index stale.  Use {!update} instead.
    The arrays are shared with the index; do not mutate them. *)

val make :
  name:string ->
  arch:arch ->
  units:Unit_.t array ->
  memories:Memory.t array ->
  hubs:Hub.t array ->
  links:Link.t list ->
  params:Params.t ->
  t
(** Builds the graph and its index in one pass over [links].  Never
    raises: access links with out-of-range ids stay out of the index, and
    {!Validate} reports them from [links]. *)

val update :
  ?name:string ->
  ?units:Unit_.t array ->
  ?memories:Memory.t array ->
  ?hubs:Hub.t array ->
  ?links:Link.t list ->
  ?params:Params.t ->
  t ->
  t
(** [{ g with ... }] for graphs: the given fields replaced, the index
    rebuilt. *)

val unit_ : t -> int -> Unit_.t
(** @raise Invalid_argument on a bad id. *)

val memory : t -> int -> Memory.t
val hub : t -> Hub.kind -> Hub.t option
(** The first hub of that kind. *)

val general_cores : t -> Unit_.t list
val freq_mhz : t -> int
(** Clock of the first general core: the one cycles-to-time conversion
    for predictions, bounds and simulation.
    @raise Invalid_argument when the NIC has no general core. *)

val accelerators : t -> Unit_.t list
val find_accelerator : t -> Unit_.accel_kind -> Unit_.t option

val upcall_cycles : t -> int
(** Per-packet cost of an eSwitch fast-path miss being upcalled to the
    core complex, read off the fabric hub; 0 on [On_path]/[Host_only]
    graphs (a miss there never changes execution domains). *)

val access_weight : t -> unit_id:int -> mem_id:int -> int option
(** NUMA weight of the bus between a unit and a region (the first such
    link when there are several); [None] when the unit cannot reach the
    region at all. *)

val access_cycles : t -> unit_id:int -> mem_id:int -> [ `Read | `Write | `Atomic ] -> int option
(** Full access latency: region base cost + bus weight. *)

val reachable_memories : t -> unit_id:int -> (Memory.t * int) list
(** Regions a unit can touch, with their NUMA weights, fastest first
    (ties in link order; one entry per access link, duplicates kept). *)

val local_region : t -> unit_id:int -> int option
(** The fastest reachable [Local] region (register/stack traffic), else
    the fastest reachable region of any level; [None] if the unit
    reaches no memory. *)

val max_access_weight : t -> int
(** The largest access-link weight (0 when there is none): the worst
    cross-island bus penalty of the NIC. *)

val pipeline_ok : t -> int -> int -> bool
(** [pipeline_ok g u1 u2]: can work flow from unit [u1] to unit [u2]
    (equal unit, or non-decreasing stage order)? *)

(** A placement class groups interchangeable units (e.g. the 12 identical
    NPUs of an island) so the mapping ILP stays small while capacity
    constraints still see the real multiplicity. *)
type placement_class = { rep : Unit_.t; members : int list }

val placement_classes : t -> placement_class list

val total_threads : t -> int
(** Sum of general-core hardware threads: the NIC's packet parallelism. *)

val slice : t -> keep_num:int -> keep_den:int -> t
(** [slice g ~keep_num ~keep_den] models a fraction of the NIC for
    co-resident NF reasoning (§3.5): keeps ⌈num/den⌉ of the general cores
    and scales shared memory capacities and queue depths by the same
    fraction.  Accelerators remain (they are time-shared). *)

val pp : Format.formatter -> t -> unit
