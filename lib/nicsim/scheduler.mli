(** Two-stage weighted-round-robin over per-tenant ingress queues.

    Models an SR-IOV-style NIC scheduler (OS4C's design): each tenant
    owns a VF ingress queue; stage 1 grants a tenant according to its
    weight, stage 2 drains packets from the granted tenant's queue until
    its per-round credit is spent or its queue empties.  Credits
    replenish to the configured weights only when every backlogged
    tenant has exhausted its credit, so over any busy period tenant [i]
    receives service in proportion to [weights.(i)].

    The scheduler is purely deterministic: the same enqueue sequence
    always drains in the same order. *)

type 'a t

val create : weights:int array -> 'a t
(** One queue per weight entry.  Raises [Invalid_argument] on an empty
    array or a non-positive weight. *)

val tenants : _ t -> int
val length : _ t -> int
(** Total queued items across all tenants. *)

val credit : _ t -> int -> int
(** The tenant's remaining per-round credit — its current WRR deficit
    counter.  Replenishes to the weight when every backlogged tenant has
    spent its credit.  Telemetry samples this to show fairness
    transients. *)

val is_empty : _ t -> bool

val enqueue : 'a t -> tenant:int -> 'a -> unit

val next : 'a t -> (int * 'a) option
(** Pop the next item in WRR order, with the owning tenant's index.
    [None] iff every queue is empty.  Credit and cursor state persist
    across calls, so interleaving [enqueue] and [next] behaves like a
    live scheduler. *)

val drain : 'a t -> (int -> 'a -> unit) -> unit
(** [drain t f] calls [f tenant item] for every queued item in WRR order
    until the scheduler is empty. *)

val split : total:int -> weights:int array -> int array
(** Deterministic proportional division of [total] indivisible units
    (threads, queue slots) among tenants.  Each tenant gets the floor of
    its exact weighted share; leftover units go one each to the
    lowest-indexed tenants; finally every tenant is raised to at least
    one unit (taking from the currently largest allocation when
    [total >= n], so the parts still sum to [total]).  When
    [total < n] the minimum-one clamp makes the sum exceed [total] —
    the caller keeps every tenant runnable, matching the old
    [max 1 (total / n)] behaviour.  Raises [Invalid_argument] on an
    empty or non-positive weight array. *)
