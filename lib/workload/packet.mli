(** Packets as Clara's workload layer sees them: parsed 5-tuple plus the
    size and timing information the predictor and simulator need. *)

type proto = Tcp | Udp | Other of int

type t = {
  src_ip : int32;
  dst_ip : int32;
  src_port : int;
  dst_port : int;
  proto : proto;
  flags : int;         (** TCP flags; bit 0x2 = SYN. *)
  payload_bytes : int;
  arrival_ns : int64;  (** Arrival time since trace start. *)
}

val proto_number : proto -> int
(** IANA protocol numbers: TCP = 6, UDP = 17. *)

val proto_of_number : int -> proto

val proto_header_bytes : proto -> int
(** Ethernet + IPv4 + L4 header bytes (54 TCP / 42 UDP / 34 other): the
    one place Clara decides how big a packet's headers are. *)

val header_bytes : t -> int
(** [proto_header_bytes] of the packet's protocol. *)

val total_bytes : t -> int
(** Header + payload. *)

val is_syn : t -> bool

val flow_key : t -> int
(** Hash of the 5-tuple; equal for packets of the same flow. *)

val pp : Format.formatter -> t -> unit
