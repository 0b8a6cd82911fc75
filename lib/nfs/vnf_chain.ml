module Dev = Clara_nicsim.Device
module W = Clara_workload

let source ?(stats_entries = 8192) () =
  Printf.sprintf
    {|
nf vnf_chain {
  state map stats[%d] entry 32;

  handler process(pkt) {
    var hdr = parse_header(pkt);
    var bad = scan_payload(pkt, 64);
    if (bad) {
      drop(pkt);
      return;
    }
    meter(hdr.src_ip);
    hdr.ttl = hdr.ttl - 1;
    var key = hash(hdr.src_ip, hdr.dst_ip);
    count(stats, key);
    emit(pkt);
  }
}
|}
    stats_entries

let ported ?(stats_entries = 8192) ?(stats_placement = Dev.P_ctm) () =
  let table = "stats" in
  let handler ctx (pkt : W.Packet.t) =
    Dev.parse_header ctx ~engine:true;
    let bad = Dev.scan_payload ctx ~bytes:pkt.W.Packet.payload_bytes in
    Dev.branch ctx;
    if bad then Dev.Drop
    else begin
      Dev.meter ctx;
      (* TTL decrement. *)
      Dev.move ctx 1;
      Dev.alu ctx 1;
      Dev.hash_op ctx;
      ignore (Dev.count ctx table ~key:(W.Packet.flow_key pkt));
      Dev.Emit
    end
  in
  {
    Dev.name = "vnf_chain";
    tables =
      [ { Dev.t_name = table; t_entries = stats_entries; t_entry_bytes = 32;
          t_placement = stats_placement } ];
    handler;
  }
