(** Abstract workload profiles (§3.5).

    The paper's example inputs — "80% TCP vs 20% UDP", "10 k concurrent
    TCP flows with 300-byte average packet size" — become values of this
    type; {!Trace.synthesize} turns one into a concrete packet trace, and
    the predictor can also consume the profile directly (per-packet-type
    analysis). *)

type t = {
  tcp_fraction : float;       (** Remainder is UDP. *)
  flow_count : int;           (** Concurrent flows. *)
  flow_skew : float;          (** Zipf alpha over flows; 0 = uniform. *)
  payload : Dist.t;           (** Payload size distribution (bytes). *)
  rate_pps : float;           (** Offered load, packets per second. *)
  packets : int;              (** Trace length. *)
  new_flow_syn : bool;        (** First TCP packet of a flow carries SYN. *)
}

val default : t
(** 80/20 TCP/UDP, 10 000 flows, Zipf 1.1, 300-byte average payload,
    60 kpps, 100 000 packets — the paper's running example numbers
    (§3.5 and §4's 60 k packets/s traffic rate). *)

val make :
  ?tcp_fraction:float ->
  ?flow_count:int ->
  ?flow_skew:float ->
  ?payload:Dist.t ->
  ?rate_pps:float ->
  ?packets:int ->
  ?new_flow_syn:bool ->
  unit ->
  t

val mean_payload : t -> float
val mean_header_bytes : t -> float
(** {!Packet.proto_header_bytes} weighted by the TCP/UDP mix. *)

val mean_packet_bytes : t -> float
(** Payload plus {!mean_header_bytes}. *)

val validate : t -> (unit, string) result
(** The first field out of range, by name; a NaN is out of range. *)
