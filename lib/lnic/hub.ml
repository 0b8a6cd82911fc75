type discipline = Fifo | Priority of int

type kind = [ `Ingress | `Egress | `Fabric | `Host_dma ]

type t = {
  id : int;
  name : string;
  kind : kind;
  queue_capacity : int;
  discipline : discipline;
  per_packet_cycles : int;
}

let kind_name = function
  | `Ingress -> "ingress"
  | `Egress -> "egress"
  | `Fabric -> "fabric"
  | `Host_dma -> "host-dma"

let pp fmt t =
  Format.fprintf fmt "%s#%d(%s,q=%d,%s,%dcyc/pkt)" t.name t.id (kind_name t.kind)
    t.queue_capacity
    (match t.discipline with Fifo -> "fifo" | Priority n -> Printf.sprintf "prio%d" n)
    t.per_packet_cycles
