type proto = Tcp | Udp | Other of int

type t = {
  src_ip : int32;
  dst_ip : int32;
  src_port : int;
  dst_port : int;
  proto : proto;
  flags : int;
  payload_bytes : int;
  arrival_ns : int64;
}

let proto_number = function Tcp -> 6 | Udp -> 17 | Other n -> n

let proto_of_number = function 6 -> Tcp | 17 -> Udp | n -> Other n

let proto_header_bytes = function
  (* Ethernet 14 + IPv4 20 + (TCP 20 | UDP 8 | none). *)
  | Tcp -> 54
  | Udp -> 42
  | Other _ -> 34

let header_bytes t = proto_header_bytes t.proto

let total_bytes t = header_bytes t + t.payload_bytes

let is_syn t = t.proto = Tcp && t.flags land 0x2 <> 0

let flow_key t =
  let h = ref 0x811c9dc5 in
  let mix v = h := (!h lxor v) * 0x01000193 land max_int in
  mix (Int32.to_int t.src_ip land 0xffffffff);
  mix (Int32.to_int t.dst_ip land 0xffffffff);
  mix t.src_port;
  mix t.dst_port;
  mix (proto_number t.proto);
  !h

let pp fmt t =
  Format.fprintf fmt "%ld:%d -> %ld:%d %s%s %dB @%Ldns" t.src_ip t.src_port t.dst_ip
    t.dst_port
    (match t.proto with Tcp -> "tcp" | Udp -> "udp" | Other n -> Printf.sprintf "proto%d" n)
    (if is_syn t then "[syn]" else "")
    t.payload_bytes t.arrival_ns
