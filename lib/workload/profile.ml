type t = {
  tcp_fraction : float;
  flow_count : int;
  flow_skew : float;
  payload : Dist.t;
  rate_pps : float;
  packets : int;
  new_flow_syn : bool;
}

let default =
  {
    tcp_fraction = 0.8;
    flow_count = 10_000;
    flow_skew = 1.1;
    payload = Dist.Uniform (100, 500);
    rate_pps = 60_000.;
    packets = 100_000;
    new_flow_syn = true;
  }

let make ?(tcp_fraction = default.tcp_fraction) ?(flow_count = default.flow_count)
    ?(flow_skew = default.flow_skew) ?(payload = default.payload)
    ?(rate_pps = default.rate_pps) ?(packets = default.packets)
    ?(new_flow_syn = default.new_flow_syn) () =
  { tcp_fraction; flow_count; flow_skew; payload; rate_pps; packets; new_flow_syn }

let mean_payload t = Dist.mean t.payload

let tcp_header = float_of_int (Packet.proto_header_bytes Packet.Tcp)
let udp_header = float_of_int (Packet.proto_header_bytes Packet.Udp)

let mean_header_bytes t =
  (t.tcp_fraction *. tcp_header) +. ((1. -. t.tcp_fraction) *. udp_header)

(* Summed term by term rather than as [mean_payload +. mean_header_bytes]:
   float addition is not associative, and mappings are solved at this
   value. *)
let mean_packet_bytes t =
  mean_payload t +. (t.tcp_fraction *. tcp_header) +. ((1. -. t.tcp_fraction) *. udp_header)

(* Each test is negated so that a NaN fails it. *)
let validate t =
  if not (t.tcp_fraction >= 0. && t.tcp_fraction <= 1.) then Error "tcp_fraction outside [0,1]"
  else if t.flow_count <= 0 then Error "flow_count must be positive"
  else if not (t.flow_skew >= 0.) then Error "flow_skew must be non-negative"
  else if not (t.rate_pps > 0.) then Error "rate_pps must be positive"
  else if t.packets <= 0 then Error "packets must be positive"
  else Ok ()
