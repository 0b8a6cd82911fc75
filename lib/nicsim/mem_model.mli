(** Dynamic memory-hierarchy model for the simulator.

    Unlike the predictor's static hit-ratio estimate, this tracks the
    EMEM cache line-by-line (64-byte lines in an LRU), so hit rates
    emerge from the actual access pattern — Zipf-skewed flows really do
    hit more often than uniform ones. *)

type region = Local | Ctm | Imem | Emem

type t

val create : Clara_lnic.Graph.t -> t
(** Latencies and the EMEM cache geometry are read off the LNIC's memory
    regions; regions absent from the graph fall back to the next slower
    present level. *)

type outcome = Hit | Miss | Uncached
(** Cache outcome of one access: [Hit]/[Miss] for cache-backed EMEM,
    [Uncached] for flat-latency regions (or an EMEM without a cache). *)

val access :
  t -> region -> mode:[ `Read | `Write | `Atomic ] -> addr:int -> int
(** Cycles for one access.  [addr] identifies the cached line for [Emem]
    accesses; other regions are flat-latency.  Allocates nothing; the
    cache outcome is left for {!last_outcome}. *)

val access_run :
  t -> region -> mode:[ `Read | `Write | `Atomic ] -> base:int -> stride:int -> count:int -> int
(** [access_run t region ~mode ~base ~stride ~count]: total cycles for
    the [count] accesses at [base + i * stride], [i < count], in order,
    with the same hit and miss counts, {!last_outcome} and cache state
    as that many {!access} calls.  When the EMEM cache has not changed
    since the same run (same base, stride and count, with [count] at
    most the cache's capacity) was last applied, every access hits and
    the recency order stays as it is, so the run is charged
    [count] hits without touching the cache. *)

val clear : t -> unit
(** Empties the EMEM cache (a cold cache); the hit and miss counts stay. *)

val last_outcome : t -> outcome
(** Outcome of the most recent {!access} ([Uncached] before any) — the
    simulator's hit-rate accounting and the trace layer read it right
    after each access. *)

val region_name : region -> string
(** Stable lower-case name ("local", "ctm", "imem", "emem"). *)

val emem_hits : t -> int
val emem_misses : t -> int
val reset_stats : t -> unit
