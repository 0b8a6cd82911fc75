module Dev = Clara_nicsim.Device
module W = Clara_workload

let source ?(buckets = 4096) ?(threshold = 1000) () =
  Printf.sprintf
    {|
nf heavy_hitter {
  state counter sketch[%d] entry 8;

  handler process(pkt) {
    var hdr = parse_header(pkt);
    var key = hash(hdr.src_ip, hdr.dst_ip);
    var c = count(sketch, key);
    if (c > %d) {
      drop(pkt);
    } else {
      emit(pkt);
    }
  }
}
|}
    buckets threshold

let ported ?(buckets = 4096) ?(threshold = 1000) ?(placement = Dev.P_ctm) () =
  let table = "sketch" in
  let handler ctx (pkt : W.Packet.t) =
    Dev.parse_header ctx ~engine:true;
    Dev.hash_op ctx;
    let c = Dev.count ctx table ~key:(W.Packet.flow_key pkt mod buckets) in
    Dev.branch ctx;
    if c > threshold then Dev.Drop else Dev.Emit
  in
  {
    Dev.name = "heavy_hitter";
    tables =
      [ { Dev.t_name = table; t_entries = buckets; t_entry_bytes = 8;
          t_placement = placement } ];
    handler;
  }
