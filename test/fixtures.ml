(* Guard probabilities for the dataflow, mapping and analysis tests:
   80% TCP / 20% UDP, 10% SYN, 90% table hits, 10% scan matches, 5%
   counter crossings, 0.5 for other flags and opaque guards — the kind
   of abstract profile the paper gives as an example (§3.5). *)
let default_probability =
  Clara.prob_of_profile
    (Clara_workload.Profile.make ~tcp_fraction:0.8 ~flow_count:100 ~packets:1000
       ~new_flow_syn:true ())

(* An NF with a [return] inside a loop body: every TCP packet drops on
   the loop's first iteration and never reaches the code after it. *)
let early_exit_source =
  {|nf early_exit {
  state counter seen[1024] entry 8;
  handler process(pkt) {
    var hdr = parse_header(pkt);
    for (i = 0; i < 8; i = i + 1) {
      if (hdr.proto == 6) {
        drop(pkt);
        return;
      }
      hdr.ttl = hdr.ttl - 1;
    }
    var n = count(seen, hdr.src_ip);
    checksum(pkt);
    emit(pkt);
  }
}|}

(* Major-heap words an action allocates itself, not by promotion: the
   major words it adds less the words minor collections promote, with a
   minor collection on either side so every promotion is counted.
   [Gc.counters] is read, not [Gc.quick_stat]: the latter's major words
   move only at a major slice. *)
let direct_major_words f =
  Gc.minor ();
  let _, promoted0, major0 = Gc.counters () in
  f ();
  Gc.minor ();
  let _, promoted1, major1 = Gc.counters () in
  major1 -. major0 -. (promoted1 -. promoted0)
