(** Sim-time telemetry for engine runs.

    A collector holds one {!Clara_obs.Timeseries} per metric, sampled on
    the simulated clock (core cycles) as the engine dispatches packets —
    so the series show how the run behaved over time (queue growth, WRR
    fairness transients, flow-cache warm-up), not just run totals.

    Per tenant (a solo run is tenant 0):
    - [queue_depth] (gauge): ingress in-flight depth at each arrival.
    - [goodput] / [drops] (rate): packets retired / dropped per window.
    - [latency] (gauge): per-packet latency cycles at retirement.
    - [busy_cycles] (rate): thread service time — divide by
      threads×cadence for utilization.
    - [wrr_deficit] (gauge): the scheduler credit at each dispatch
      (tenant runs only; constant for solo runs).
    - [fc_hits] / [fc_misses], [emem_hits] / [emem_misses] (rate):
      per-program cache outcomes, sampled by delta at each retirement.

    Sim-wide: [accel_busy] / [dma_busy] (rate, occupancy cycles),
    [upcalls] (rate, off-path fabric crossings).

    A tenant's series are named [tenantI.METRIC] ([tenant0.queue_depth]
    and so on), the sim-wide ones by their bare metric name.

    Same zero-cost-off discipline as tracing: the engine takes a
    [Telemetry.t option] and every hook is one [match] on it.  A
    collector is single-domain; sharded runs give each worker a
    {!fresh_like} collector and {!absorb} them in shard order, which is
    deterministic in the shard count because series merge by exact
    window sums. *)

type t

val create : ?max_windows:int -> ?cadence:int -> unit -> t
(** [cadence] is the window width in core cycles (default 8192; must be
    positive), [max_windows] as in {!Clara_obs.Timeseries.create}.
    Starts with a single tenant named ["prog"]; {!set_tenants}
    reshapes. *)

val cadence : t -> int
val tenant_names : t -> string array

val set_tenants : t -> string array -> unit
(** Reallocate per-tenant series for this tenant list (the engine calls
    it with the program names before dispatching; any previously
    recorded samples are discarded). *)

val fresh_like : t -> t
(** An empty collector with the same cadence, window budget and tenant
    shape — what each sharded worker records into. *)

(** {2 Engine hooks} — [now] is always the packet's arrival cycle, so a
    window aggregates the packets that {e arrived} in it. *)

val on_arrival : t -> tenant:int -> now:int -> depth:int -> unit
val on_drop : t -> tenant:int -> now:int -> unit
val on_deficit : t -> tenant:int -> now:int -> credit:int -> unit

val on_retire :
  t -> sim:Device.sim -> tenant:int -> now:int -> latency:int -> service:int -> unit
(** Also samples the sim's cumulative counters (cache outcomes, accel /
    DMA busy cycles, upcalls) by delta against the previous call, so
    window sums equal the true per-window totals. *)

val absorb : t -> t list -> unit
(** Merge the series of [srcs] (same tenant shape, same base cadence)
    into the collector, element-wise per series.  Deterministic in list
    order; inputs are not mutated. *)

val series : t -> Clara_obs.Timeseries.t list
(** Every series in a fixed order: per-tenant blocks first, then the
    sim-wide series. *)

val to_json : t -> Clara_util.Json.t
(** {v { "schema": 1, "cadence", "tenants": [names],
       "series": [Timeseries.to_json...] } v} *)

val to_csv : t -> string
(** {!Clara_obs.Timeseries.csv_header} plus one row per non-empty
    window of every series. *)
