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

(* One FNV-1a step, kept to a non-negative int. *)
let[@inline] fnv h v = (h lxor v) * 0x01000193 land max_int

(* The five-tuple folded through [fnv].  The predictor's walk calls it
   on every table-hit guard and table update, so it allocates nothing. *)
let flow_key t =
  let h = fnv 0x811c9dc5 (Int32.to_int t.src_ip land 0xffffffff) in
  let h = fnv h (Int32.to_int t.dst_ip land 0xffffffff) in
  let h = fnv h t.src_port in
  let h = fnv h t.dst_port in
  fnv h (proto_number t.proto)

let pp fmt t =
  Format.fprintf fmt "%ld:%d -> %ld:%d %s%s %dB @%Ldns" t.src_ip t.src_port t.dst_ip
    t.dst_port
    (match t.proto with Tcp -> "tcp" | Udp -> "udp" | Other n -> Printf.sprintf "proto%d" n)
    (if is_syn t then "[syn]" else "")
    t.payload_bytes t.arrival_ns
