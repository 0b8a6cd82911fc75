(** Concrete packet traces: synthesis from a profile, iteration, and the
    summary statistics Clara feeds the mapping stage. *)

type t = {
  packets : Packet.t array;
  profile : Profile.t option;  (** The generating profile, if synthetic. *)
}

val synthesize : ?seed:int64 -> Profile.t -> t
(** Deterministic for a given (profile, seed):
    - per-flow 5-tuples drawn once, flow choice per packet is Zipf;
    - TCP flows emit SYN on their first packet when the profile says so;
    - Poisson arrivals at [rate_pps].
    @raise Invalid_argument when the profile fails {!Profile.validate}. *)

val of_packets : Packet.t array -> t

type stats = {
  count : int;
  tcp_fraction : float;
  syn_fraction : float;
  mean_payload : float;
  mean_packet : float;
  distinct_flows : int;
  duration_ns : int64;
}

val stats : t -> stats
val profile_of : t -> Profile.t
(** The trace's own workload mix, at which an analysis of it is solved:
    the generating profile of a synthetic trace; for any other trace (a
    capture), one built from {!stats}: its TCP fraction, distinct flows,
    packet count and arrival rate, a fixed payload at the rounded mean,
    and SYN-on-new-flow when any packet carries SYN.  The flow skew is
    {!Profile.default}'s. *)

val iter : (Packet.t -> unit) -> t -> unit
val fold : ('a -> Packet.t -> 'a) -> 'a -> t -> 'a
val pp_stats : Format.formatter -> stats -> unit

val merge : t -> t -> t
(** Interleave two traces by arrival time (co-residency experiments). *)

val filter : (Packet.t -> bool) -> t -> t
(** Keep matching packets (e.g. one protocol); timestamps untouched. *)

val truncate : t -> int -> t
(** First [n] packets. *)

val scale_rate : t -> float -> t
(** Multiply the arrival rate by a factor (divide inter-arrival gaps). *)
