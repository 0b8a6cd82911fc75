(** The simulator's run loop.

    Packets arrive at trace timestamps (converted to core cycles), queue
    at the ingress hub, bind to a free hardware thread (run-to-completion,
    §3.2), execute the ported handler, and leave through the egress path.
    Per-packet latency = completion − arrival, so queueing delay at high
    load and accelerator contention show up in the numbers, just as they
    would on hardware.

    Every run executes each packet's handler on this event path.
    {!run_sharded} is the one performance lever on top: flows shard onto
    independent NIC slices simulated concurrently on the shared
    {!Clara_util.Pool}; merged results depend on the shard count, never
    the domain count.

    [run ~fast:(Auto _)] keeps the retired steady-state fast path for one
    caller, the benchmark's fast-path cell ([perfbench/]): after a
    warm-up window, packets whose cost profile has been memoized and
    confirmed replay analytically instead of re-executing the handler.
    Packets that touch mutable simulator state are permanently excluded,
    so replay is byte-identical to the event path; handler-side OCaml
    state (a closure over a ref) is caught only heuristically, so [Auto]
    is safe only for programs {!Clara_analysis.Sharing.stateless} accepts.
    On the corpus it is no faster than the event path, and nothing else
    uses it. *)

type fast_mode =
  | Event_only          (** always execute the handler (the default) *)
  | Auto of { warmup : int }
      (** memoize + replay confirmed steady-state packets once the
          packet sequence number reaches [warmup] *)

type result = {
  summary : Stats.summary;
  emem_hit_rate : float;       (** NaN when the NIC has no EMEM cache. *)
  flow_cache_hit_rate : float; (** NaN when the program never used it. *)
  freq_mhz : int;
  fast : Fastpath.stats;
      (** All zeros / [enabled = false] except under [run ~fast:(Auto _)]. *)
}

val run :
  ?threads:int ->
  ?queue_capacity:int ->
  ?sink:Trace.t ->
  ?metrics:Telemetry.t ->
  ?fast:fast_mode ->
  Clara_lnic.Graph.t ->
  Device.prog ->
  Clara_workload.Trace.t ->
  result
(** [threads] defaults to the NIC's total hardware threads and
    [queue_capacity] to the ingress hub's, so solo, pair, tenant and
    sharded runs are comparable at a pinned capacity.  [sink] installs a
    per-packet event trace ({!Trace}); without it the run does no trace
    work and results are byte-identical to a traced run's (the
    [bench trace] section guards this).  [metrics] installs a sim-time
    telemetry collector ({!Telemetry}) under the same discipline:
    without it no telemetry work happens and results are byte-identical
    to an instrumented run's.  [fast] defaults to {!Event_only}; [Auto]
    is ignored when [sink] is set.  Threads and queue slots resolve as
    in {!run_tenants} with a single tenant.
    @raise Device.Unrunnable when the port asks for an operation the
    target cannot run. *)

val run_sharded :
  ?domains:int ->
  ?shards:int ->
  ?threads:int ->
  ?queue_capacity:int ->
  ?metrics:Telemetry.t ->
  Clara_lnic.Graph.t ->
  Device.prog ->
  Clara_workload.Trace.t ->
  result
(** Domain-parallel run: flows are partitioned onto [shards] independent
    NIC slices, the slices simulate concurrently on up to [domains]
    domains, and raw stats merge deterministically in shard order.
    Threads and ingress-queue slots divide by {!Scheduler.split}: equal
    shares with remainder units to the lowest-indexed shards, each shard
    clamped to at least 1, and the per-shard sums equal the totals
    whenever total >= shards (floor division used to lose up to
    shards-1 threads).  [shards] defaults to [domains]; for a fixed
    shard count the result is byte-identical across any domain count.
    Not a bit-exact model of one shared NIC: cross-flow contention on
    accelerators and EMEM is confined to each slice.  Tracing is
    unsupported here (use {!run}).  [metrics] gives each shard worker a
    fresh collector and merges them in shard order, so the telemetry —
    like the stats — is deterministic in the shard count.
    @raise Device.Unrunnable as {!run} does, from the lowest shard that
    raised it. *)

val pp_result : Format.formatter -> result -> unit
(** Hit rates that are NaN (feature never exercised) print as "n/a". *)

val result_to_json : result -> Clara_util.Json.t
(** NaN hit rates serialize as [null]. *)

val run_tenants :
  ?threads:int ->
  ?queue_capacity:int ->
  ?weights:int array ->
  ?sink:Trace.t ->
  ?metrics:Telemetry.t ->
  Clara_lnic.Graph.t ->
  Device.prog array ->
  Clara_workload.Trace.t array ->
  result array
(** N-tenant co-residence: all programs share one simulator — EMEM
    cache, flow cache, accelerators and DMA lanes contend for real —
    while hardware threads and ingress-queue slots divide by [weights]
    (default: equal) via {!Scheduler.split}, remainder units to the
    lowest-indexed tenants and the per-tenant sums conserved whenever
    the pool covers every tenant.  Packets from all traces merge under
    the total order (arrival, tenant, source index); packets sharing an
    arrival tick are queued per tenant and dispatched in the two-stage
    weighted-round-robin order of {!Scheduler}, whose credit state
    persists across ticks — so the whole run is deterministic and a
    heavy tenant cannot starve a light one of dispatch slots.  Results
    are reported per tenant, in input order, each with its own
    per-program cache counters.  With [sink], events carry the owning
    tenant's index and {!Trace.progs} lists every name.  Raises
    [Invalid_argument] when [progs], [traces] and [weights] disagree on
    the tenant count, on an empty tenant list, or on a non-positive
    weight. *)
