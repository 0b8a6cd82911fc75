module Dev = Clara_nicsim.Device
module W = Clara_workload

let source ?(buckets = 8192) () =
  Printf.sprintf
    {|
nf telemetry {
  state map rates[%d] entry 16;

  handler process(pkt) {
    var hdr = parse_header(pkt);
    var key = hash(hdr.src_ip, hdr.dst_ip);
    var c = count(rates, key);
    // EWMA rate estimate in floating point: alpha-blend the new sample.
    var alpha = 0.125;
    var sample = 1.0;
    var est = alpha * sample + (1.0 - alpha) * 0.9;
    var scaled = est * 1000.0;
    if (scaled > 900.0) {
      meter(hdr.src_ip);
    }
    emit(pkt);
  }
}
|}
    buckets

let ported ?(buckets = 8192) () =
  let table = "rates" in
  let handler ctx (pkt : W.Packet.t) =
    Dev.parse_header ctx ~engine:true;
    Dev.hash_op ctx;
    ignore (Dev.count ctx table ~key:(W.Packet.flow_key pkt mod buckets));
    (* EWMA: 5 float ops (mul, mul, sub, add, mul) + compare. *)
    Dev.fp_op ctx 6;
    Dev.branch ctx;
    if W.Packet.flow_key pkt mod 20 = 0 then Dev.meter ctx;
    Dev.Emit
  in
  {
    Dev.name = "telemetry";
    tables =
      [ { Dev.t_name = table; t_entries = buckets; t_entry_bytes = 16;
          t_placement = Dev.P_ctm } ];
    handler;
  }
