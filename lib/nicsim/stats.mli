(** Latency and throughput aggregates from a simulator run.

    Raw latencies are kept exactly, in 256-slot segments: blocks the
    minor heap allocates, so a run's samples cost the major heap
    nothing unless they outlive a minor collection. *)

type t

val create : unit -> t

val record :
  t -> proto:Clara_workload.Packet.proto -> syn:bool -> latency_cycles:int -> unit

val record_drop : t -> unit

val merge : t list -> t
(** Combine raw samples and accumulators from several runs (e.g. the
    shards of a domain-parallel simulation).  The result depends on the
    multiset of samples only, and recording into an input afterwards
    does not change it. *)

type summary = {
  packets : int;
  drops : int;
  mean_cycles : float;
  p50_cycles : int;
  p99_cycles : int;
  max_cycles : int;
  tcp_mean : float;    (** NaN when no TCP packets. *)
  udp_mean : float;
  syn_mean : float;
}

val summarize : t -> summary
(** Nearest-rank p50/p99, the max and the exact mean.  Sorts each
    segment of raw samples in place, which no later [record], [merge] or
    [summarize] can observe, and finds each rank by a search over
    values, so it builds no array of all samples. *)

val mean_ns : summary -> freq_mhz:int -> float
(** Mean latency converted to nanoseconds at a core clock. *)

val pp_summary : Format.formatter -> summary -> unit
