type t = { packets : Packet.t array; profile : Profile.t option }

let synthesize ?(seed = 42L) (p : Profile.t) =
  (match Profile.validate p with
  | Ok () -> ()
  | Error e -> invalid_arg ("Trace.synthesize: " ^ e));
  let g = Prng.create ~seed in
  (* Flow population: stable 5-tuples; protocol chosen per flow so a flow
     never changes protocol. *)
  let flows =
    Array.init p.Profile.flow_count (fun _ ->
        let proto = if Prng.bool g p.Profile.tcp_fraction then Packet.Tcp else Packet.Udp in
        ( Int32.of_int (0x0a000000 lor Prng.int g 0xffffff),
          Int32.of_int (0xc0a80000 lor Prng.int g 0xffff),
          1024 + Prng.int g 60000,
          (if Prng.bool g 0.5 then 80 else 443),
          proto ))
  in
  let seen = Array.make p.Profile.flow_count false in
  let zipf = Dist.make_zipf ~n:p.Profile.flow_count ~alpha:p.Profile.flow_skew in
  let mean_gap_ns = 1e9 /. p.Profile.rate_pps in
  let now = ref 0. in
  let packets =
    Array.init p.Profile.packets (fun _ ->
        let fid = zipf g in
        let src_ip, dst_ip, src_port, dst_port, proto = flows.(fid) in
        let first = not seen.(fid) in
        seen.(fid) <- true;
        let flags =
          if proto = Packet.Tcp && first && p.Profile.new_flow_syn then 0x2 else 0
        in
        now := !now +. Dist.exponential g ~mean:mean_gap_ns;
        {
          Packet.src_ip;
          dst_ip;
          src_port;
          dst_port;
          proto;
          flags;
          payload_bytes = Dist.sample g p.Profile.payload;
          arrival_ns = Int64.of_float !now;
        })
  in
  { packets; profile = Some p }

let of_packets packets = { packets; profile = None }

type stats = {
  count : int;
  tcp_fraction : float;
  syn_fraction : float;
  mean_payload : float;
  mean_packet : float;
  distinct_flows : int;
  duration_ns : int64;
}

let stats t =
  let n = Array.length t.packets in
  if n = 0 then
    { count = 0; tcp_fraction = 0.; syn_fraction = 0.; mean_payload = 0.;
      mean_packet = 0.; distinct_flows = 0; duration_ns = 0L }
  else begin
    let tcp = ref 0 and syn = ref 0 and pay = ref 0 and tot = ref 0 in
    let flows = Hashtbl.create 1024 in
    Array.iter
      (fun (pk : Packet.t) ->
        if pk.Packet.proto = Packet.Tcp then incr tcp;
        if Packet.is_syn pk then incr syn;
        pay := !pay + pk.Packet.payload_bytes;
        tot := !tot + Packet.total_bytes pk;
        Hashtbl.replace flows (Packet.flow_key pk) ())
      t.packets;
    {
      count = n;
      tcp_fraction = float_of_int !tcp /. float_of_int n;
      syn_fraction = float_of_int !syn /. float_of_int n;
      mean_payload = float_of_int !pay /. float_of_int n;
      mean_packet = float_of_int !tot /. float_of_int n;
      distinct_flows = Hashtbl.length flows;
      duration_ns = t.packets.(n - 1).Packet.arrival_ns;
    }
  end

let profile_of t =
  match t.profile with
  | Some p -> p
  | None ->
      let s = stats t in
      let count = max 1 s.count in
      Profile.make ~tcp_fraction:s.tcp_fraction ~flow_count:(max 1 s.distinct_flows)
        ~payload:(Dist.Fixed (int_of_float (Float.round s.mean_payload)))
        ~rate_pps:
          (if s.duration_ns > 0L then
             float_of_int count *. 1e9 /. Int64.to_float s.duration_ns
           else Profile.default.Profile.rate_pps)
        ~packets:count ~new_flow_syn:(s.syn_fraction > 0.) ()

let iter f t = Array.iter f t.packets
let fold f init t = Array.fold_left f init t.packets

let pp_stats fmt s =
  Format.fprintf fmt
    "%d pkts, %.0f%% tcp, %.1f%% syn, payload %.0fB, pkt %.0fB, %d flows, %.1f ms"
    s.count (100. *. s.tcp_fraction) (100. *. s.syn_fraction) s.mean_payload
    s.mean_packet s.distinct_flows
    (Int64.to_float s.duration_ns /. 1e6)

let merge a b =
  let packets = Array.append a.packets b.packets in
  Array.sort (fun (p : Packet.t) (q : Packet.t) -> compare p.Packet.arrival_ns q.Packet.arrival_ns) packets;
  { packets; profile = None }

let filter f t = { packets = Array.of_seq (Seq.filter f (Array.to_seq t.packets)); profile = None }

let truncate t n =
  { t with packets = Array.sub t.packets 0 (min n (Array.length t.packets)) }

let scale_rate t factor =
  if factor <= 0. then invalid_arg "Trace.scale_rate: factor must be positive";
  { packets =
      Array.map
        (fun (p : Packet.t) ->
          { p with
            Packet.arrival_ns =
              Int64.of_float (Int64.to_float p.Packet.arrival_ns /. factor) })
        t.packets;
    profile = None }
