(** OCaml 5 Domain worker pool: run [n] indexed jobs on up to
    [domains] domains, with per-job fault isolation and deterministic
    result ordering.

    This is the single pool implementation shared by [lib/explore]
    (sweep cells) and [lib/nicsim] (domain-parallel simulation shards).
    Results are delivered in job-index order regardless of scheduling,
    so output is reproducible across domain counts.

    The worker domains outlive a call: they are spawned the first time
    a call needs them and park between calls, so repeated calls reuse
    the same domains.  A call made from inside a job gets domains of
    its own (spawning more if none is parked) and so never deadlocks.
    Parked domains do not keep the process from exiting. *)

type 'a outcome =
  | Done of 'a
  | Failed of string  (** the job raised; message from the exception *)

type stats = {
  domains : int;
      (** worker loops this call ran, each on its own domain (clamped to
          [1..n]).  The domains are the pool's long-lived ones, so this
          is the call's parallelism, not a count of domains spawned. *)
  jobs : int;
  busy_ns : int;  (** summed over workers: wall time inside jobs *)
  wall_ns : int;
}

val map :
  ?domains:int -> ?timeout_ms:int -> (int -> 'a) -> int -> 'a outcome array * stats
(** [map ~domains f n] evaluates [f i] for [i = 0..n-1] on a pool of
    domains (default 1) and returns the outcomes in index order.  A job
    that raises becomes [Failed] for its slot only.  [timeout_ms]
    bounds each job's *reported* latency cooperatively: an over-budget
    job is marked [Failed] and its eventual result dropped (domains
    cannot be killed, so its CPU time is still spent).
    @raise Invalid_argument on a negative job count. *)

val utilization : stats -> float
(** Fraction of [domains * wall] spent inside jobs, in [0, 1]. *)
