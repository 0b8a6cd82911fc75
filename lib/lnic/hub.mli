(** Switching hubs: embedded NIC switches and traffic managers (§3.1).

    Hubs move packets between the wire, compute units and the host.  Edges
    touching a hub may carry packet queues; the Θ constraints (§3.4) come
    from their capacities and disciplines. *)

type discipline =
  | Fifo
  | Priority of int  (** Number of priority classes. *)

type kind = [ `Ingress | `Egress | `Fabric | `Host_dma ]

type t = {
  id : int;
  name : string;
  kind : kind;
  queue_capacity : int;   (** Packets queueable before drop/backpressure. *)
  discipline : discipline;
  per_packet_cycles : int; (** Switching cost per packet. *)
}

val pp : Format.formatter -> t -> unit
