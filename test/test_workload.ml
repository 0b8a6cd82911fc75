(* Tests for the workload substrate: PRNG, distributions, profiles,
   trace synthesis and pcap round-trips. *)

module W = Clara_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_prng_deterministic () =
  let a = W.Prng.create ~seed:7L and b = W.Prng.create ~seed:7L in
  let xs = List.init 16 (fun _ -> W.Prng.next a) in
  let ys = List.init 16 (fun _ -> W.Prng.next b) in
  check "same seed, same stream" true (xs = ys);
  let c = W.Prng.create ~seed:8L in
  let zs = List.init 16 (fun _ -> W.Prng.next c) in
  check "different seed, different stream" true (xs <> zs)

let test_prng_copy () =
  let a = W.Prng.create ~seed:3L in
  ignore (W.Prng.next a);
  let b = W.Prng.copy a in
  check "copy diverges independently" true (W.Prng.next a = W.Prng.next b)

let test_prng_ranges () =
  let g = W.Prng.create ~seed:1L in
  for _ = 1 to 1000 do
    let v = W.Prng.int g 10 in
    check "int in range" true (v >= 0 && v < 10);
    let f = W.Prng.float g in
    check "float in [0,1)" true (f >= 0. && f < 1.)
  done;
  check "bad bound" true
    (try ignore (W.Prng.int g 0); false with Invalid_argument _ -> true)

(* The record-of-int64 xoshiro256** the generator replaced, kept as
   the oracle: the unboxed state must give the same streams. *)
module Boxed_prng = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let create ~seed =
    let st = ref seed in
    let split () =
      let open Int64 in
      st := add !st 0x9E3779B97F4A7C15L;
      let z = !st in
      let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
      let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
      logxor z (shift_right_logical z 31)
    in
    let s0 = split () in
    let s1 = split () in
    let s2 = split () in
    let s3 = split () in
    { s0; s1; s2; s3 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let next t =
    let open Int64 in
    let result = mul (rotl (mul t.s1 5L) 7) 9L in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let int t bound = Int64.to_int (Int64.shift_right_logical (next t) 2) mod bound
  let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. (1. /. 9007199254740992.)
  let bool t p = float t < p
end

(* [next], [float], [int] and [bool] draw the same streams as the
   boxed generator: for 3 seeds, 10,000 draws of each kind from a fresh
   generator, then 10,000 with the four kinds interleaved so each one
   starts from state the others moved. *)
let test_prng_streams () =
  let draw kind g r =
    match kind with
    | 0 -> Int64.equal (W.Prng.next g) (Boxed_prng.next r)
    | 1 -> Int64.equal (Int64.bits_of_float (W.Prng.float g)) (Int64.bits_of_float (Boxed_prng.float r))
    | 2 -> W.Prng.int g 60_000 = Boxed_prng.int r 60_000
    | _ -> W.Prng.bool g 0.3 = Boxed_prng.bool r 0.3
  in
  List.iter
    (fun seed ->
      List.iter
        (fun kind ->
          let g = W.Prng.create ~seed and r = Boxed_prng.create ~seed in
          for i = 1 to 10_000 do
            let kind = if kind < 4 then kind else i mod 4 in
            if not (draw kind g r) then Alcotest.failf "seed %Ld: draw %d of kind %d differs" seed i kind
          done)
        [ 0; 1; 2; 3; 4 ])
    [ 1L; 7L; 42L ]

(* A [bool] or [int] draw allocates nothing: 10,000 of each stay
   under 100 minor words in all.  ([float] returns a boxed float to a
   caller in another module unless the call is inlined.) *)
let test_prng_no_alloc () =
  let g = W.Prng.create ~seed:5L in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if W.Prng.bool g 0.5 then incr hits;
    hits := !hits + W.Prng.int g 3
  done;
  let words = Gc.minor_words () -. before in
  check (Printf.sprintf "20k draws: %.0f minor words" words) true (words < 100.)

let test_prng_uniformity () =
  (* Chi-square-ish sanity: each of 10 buckets gets 10% +- 2%. *)
  let g = W.Prng.create ~seed:99L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = W.Prng.int g 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      let f = float_of_int c /. float_of_int n in
      check "bucket near 0.1" true (f > 0.08 && f < 0.12))
    buckets

let test_dist_means () =
  let g = W.Prng.create ~seed:5L in
  let empirical d n =
    let acc = ref 0 in
    for _ = 1 to n do
      acc := !acc + W.Dist.sample g d
    done;
    float_of_int !acc /. float_of_int n
  in
  let close a b tol = abs_float (a -. b) < tol in
  check "fixed" true (empirical (W.Dist.Fixed 42) 100 = 42.);
  check "uniform mean" true (close (empirical (W.Dist.Uniform (0, 100)) 20000) 50. 2.);
  check "bimodal mean" true
    (close (empirical (W.Dist.Bimodal (64, 1500, 0.5)) 20000)
       (W.Dist.mean (W.Dist.Bimodal (64, 1500, 0.5)))
       20.)

let test_zipf_skew () =
  let g = W.Prng.create ~seed:11L in
  let sampler = W.Dist.make_zipf ~n:1000 ~alpha:1.2 in
  let counts = Hashtbl.create 128 in
  let n = 50_000 in
  for _ = 1 to n do
    let k = sampler g in
    check "in range" true (k >= 0 && k < 1000);
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let freq k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  (* Rank-0 must dominate rank-9 roughly like (10/1)^1.2 ~ 16x. *)
  check "head heavier than tail" true (freq 0 > 5. *. freq 9);
  check "tail present" true (Hashtbl.length counts > 100);
  (* alpha = 0 is uniform. *)
  let u = W.Dist.make_zipf ~n:10 ~alpha:0. in
  let c0 = ref 0 in
  for _ = 1 to 10_000 do
    if u g = 0 then incr c0
  done;
  check "alpha=0 uniform-ish" true (!c0 > 800 && !c0 < 1200)

let test_trace_synthesis () =
  let profile =
    W.Profile.make ~tcp_fraction:0.8 ~flow_count:1000 ~packets:20_000
      ~payload:(W.Dist.Fixed 300) ~rate_pps:60_000. ()
  in
  let tr = W.Trace.synthesize ~seed:1L profile in
  let s = W.Trace.stats tr in
  check_int "packet count" 20_000 s.W.Trace.count;
  check "tcp fraction ~0.8" true (abs_float (s.W.Trace.tcp_fraction -. 0.8) < 0.05);
  check "payload exactly 300" true (s.W.Trace.mean_payload = 300.);
  check "flows bounded by population" true (s.W.Trace.distinct_flows <= 1000);
  check "many flows seen" true (s.W.Trace.distinct_flows > 400);
  (* 20k packets at 60kpps ~ 333ms. *)
  let ms = Int64.to_float s.W.Trace.duration_ns /. 1e6 in
  check "duration ~333ms" true (ms > 250. && ms < 420.);
  (* Determinism. *)
  let tr2 = W.Trace.synthesize ~seed:1L profile in
  check "same seed, same trace" true (tr.W.Trace.packets = tr2.W.Trace.packets);
  let tr3 = W.Trace.synthesize ~seed:2L profile in
  check "different seed differs" true (tr.W.Trace.packets <> tr3.W.Trace.packets)

let test_syn_on_first_packet () =
  let profile = W.Profile.make ~flow_count:50 ~packets:5000 ~tcp_fraction:1.0 () in
  let tr = W.Trace.synthesize ~seed:3L profile in
  (* Every flow's first packet is a SYN, later ones are not. *)
  let seen = Hashtbl.create 64 in
  W.Trace.iter
    (fun p ->
      let k = W.Packet.flow_key p in
      match Hashtbl.find_opt seen k with
      | None ->
          Hashtbl.add seen k ();
          check "first packet has SYN" true (W.Packet.is_syn p)
      | Some () -> check "later packet no SYN" false (W.Packet.is_syn p))
    tr

let test_packet_helpers () =
  let p =
    { W.Packet.src_ip = 1l; dst_ip = 2l; src_port = 10; dst_port = 20;
      proto = W.Packet.Tcp; flags = 0x2; payload_bytes = 100; arrival_ns = 0L }
  in
  check_int "tcp header" 54 (W.Packet.header_bytes p);
  check_int "total" 154 (W.Packet.total_bytes p);
  check "syn" true (W.Packet.is_syn p);
  check_int "proto number" 6 (W.Packet.proto_number p.W.Packet.proto);
  let q = { p with W.Packet.proto = W.Packet.Udp; flags = 0 } in
  check_int "udp header" 42 (W.Packet.header_bytes q);
  check "udp not syn" false (W.Packet.is_syn q);
  check "same tuple same key" true (W.Packet.flow_key p = W.Packet.flow_key { p with W.Packet.payload_bytes = 9 });
  check "diff tuple diff key" true (W.Packet.flow_key p <> W.Packet.flow_key q)

let read_pcap path =
  match W.Pcap.read_file path with Ok t -> t | Error e -> Alcotest.fail e

let contains m sub =
  let n = String.length m and k = String.length sub in
  let rec go i = i + k <= n && (String.sub m i k = sub || go (i + 1)) in
  go 0

let test_pcap_roundtrip () =
  let profile = W.Profile.make ~flow_count:100 ~packets:500 () in
  let tr = W.Trace.synthesize ~seed:9L profile in
  let path = Filename.temp_file "clara_test" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      W.Pcap.write_file path tr;
      let tr2 = read_pcap path in
      check_int "packet count preserved" (Array.length tr.W.Trace.packets)
        (Array.length tr2.W.Trace.packets);
      Array.iteri
        (fun i (p : W.Packet.t) ->
          let q = tr2.W.Trace.packets.(i) in
          check "src ip" true (p.W.Packet.src_ip = q.W.Packet.src_ip);
          check "dst ip" true (p.W.Packet.dst_ip = q.W.Packet.dst_ip);
          check "ports" true
            (p.W.Packet.src_port = q.W.Packet.src_port
            && p.W.Packet.dst_port = q.W.Packet.dst_port);
          check "proto" true (p.W.Packet.proto = q.W.Packet.proto);
          check "flags" true (p.W.Packet.flags = q.W.Packet.flags);
          check "payload len" true (p.W.Packet.payload_bytes = q.W.Packet.payload_bytes))
        tr.W.Trace.packets)

let test_pcap_bad_magic () =
  let path = Filename.temp_file "clara_test" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "not a pcap file at all.....";
      close_out oc;
      check "bad magic rejected" true
        (match W.Pcap.read_file path with Error m -> contains m "magic" | Ok _ -> false))

let test_trace_utilities () =
  let p = W.Profile.make ~packets:500 ~flow_count:100 ~tcp_fraction:0.7 () in
  let a = W.Trace.synthesize ~seed:1L p and b = W.Trace.synthesize ~seed:2L p in
  let m = W.Trace.merge a b in
  check_int "merge size" 1000 (Array.length m.W.Trace.packets);
  (* Sorted by arrival. *)
  let sorted = ref true in
  Array.iteri
    (fun i pk ->
      if i > 0 && pk.W.Packet.arrival_ns < m.W.Trace.packets.(i - 1).W.Packet.arrival_ns
      then sorted := false)
    m.W.Trace.packets;
  check "merge sorted" true !sorted;
  let tcp_only = W.Trace.filter (fun pk -> pk.W.Packet.proto = W.Packet.Tcp) a in
  check "filter keeps only tcp" true
    (Array.for_all (fun pk -> pk.W.Packet.proto = W.Packet.Tcp) tcp_only.W.Trace.packets);
  check "filter kept some" true (Array.length tcp_only.W.Trace.packets > 0);
  let short = W.Trace.truncate a 10 in
  check_int "truncate" 10 (Array.length short.W.Trace.packets);
  let fast = W.Trace.scale_rate a 2. in
  check "2x rate halves the horizon" true
    (let last t = t.W.Trace.packets.(Array.length t.W.Trace.packets - 1).W.Packet.arrival_ns in
     Int64.to_float (last fast) < 0.6 *. Int64.to_float (last a));
  check "bad factor" true
    (try ignore (W.Trace.scale_rate a 0.); false with Invalid_argument _ -> true)

let test_pcap_snaplen_truncation () =
  (* A frame longer than the snap length is truncated on disk, but the
     IP total-length field preserves the payload size on read-back. *)
  let monster =
    { W.Packet.src_ip = 9l; dst_ip = 10l; src_port = 1; dst_port = 2;
      proto = W.Packet.Udp; flags = 0; payload_bytes = W.Pcap.snaplen + 5_000;
      arrival_ns = 0L }
  in
  let path = Filename.temp_file "clara_trunc" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      W.Pcap.write_file path (W.Trace.of_packets [| monster |]);
      let back = read_pcap path in
      match back.W.Trace.packets with
      | [| p |] ->
          (* IPv4 total length is 16-bit, so huge payloads alias modulo
             65536 minus headers; the reader just reports what the header
             says — document that the parse is header-faithful. *)
          check "one packet survives" true (p.W.Packet.proto = W.Packet.Udp)
      | _ -> Alcotest.fail "expected exactly one packet")

let test_zipf_sampler_memoized () =
  (* Regression: [Dist.sample] used to rebuild the O(n) Zipf CDF on
     every draw.  The observability counter makes the fix testable
     without timing: 100k draws over one (n, alpha) pair must build the
     CDF exactly once.  Use a pair no other test touches so the
     process-wide cache can't hide a rebuild. *)
  let n = 4096 and alpha = 1.37 in
  let builds () =
    Clara_obs.Registry.counter_value Clara_obs.Registry.default "workload.zipf.cdf_builds"
  in
  let g = W.Prng.create ~seed:21L in
  let before = builds () in
  let counts = Hashtbl.create 512 in
  for _ = 1 to 100_000 do
    let k = W.Dist.sample g (W.Dist.Zipf (n, alpha)) in
    check "zipf sample in range" true (k >= 0 && k < n);
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  check_int "CDF built once for 100k draws" 1 (builds () - before);
  (* The memoized sampler still produces the Zipf shape. *)
  let freq k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  check "memoized sampler still skewed" true (freq 0 > 5. *. freq 19);
  (* Further draws of the same pair reuse the cached sampler. *)
  ignore (W.Dist.sample g (W.Dist.Zipf (n, alpha)));
  check_int "cache hit on later draw" 1 (builds () - before)

let bswap32 b off =
  let x0 = Bytes.get b off and x1 = Bytes.get b (off + 1) in
  let x2 = Bytes.get b (off + 2) and x3 = Bytes.get b (off + 3) in
  Bytes.set b off x3;
  Bytes.set b (off + 1) x2;
  Bytes.set b (off + 2) x1;
  Bytes.set b (off + 3) x0

let bswap16 b off =
  let x0 = Bytes.get b off and x1 = Bytes.get b (off + 1) in
  Bytes.set b off x1;
  Bytes.set b (off + 1) x0

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      b)

let write_bytes path b =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_bytes oc b)

(* Little-endian u32, for peeking at headers the writer produced. *)
let le32 b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

(* Rewrite a little-endian classic pcap into the byte-swapped (0xd4c3b2a1)
   form: swap every global- and record-header field, leave frame bytes
   alone (their endianness is defined by the network protocols, not the
   file). *)
let byteswap_pcap src dst =
  let b = read_bytes src in
  List.iter (bswap32 b) [ 0; 8; 12; 16; 20 ];
  List.iter (bswap16 b) [ 4; 6 ];
  let off = ref 24 in
  while !off + 16 <= Bytes.length b do
    let incl = le32 b (!off + 8) in
    List.iter (fun d -> bswap32 b (!off + d)) [ 0; 4; 8; 12 ];
    off := !off + 16 + incl
  done;
  write_bytes dst b

let test_pcap_swapped_endian () =
  let profile = W.Profile.make ~flow_count:40 ~packets:200 () in
  let tr = W.Trace.synthesize ~seed:17L profile in
  let native = Filename.temp_file "clara_native" ".pcap" in
  let swapped = Filename.temp_file "clara_swapped" ".pcap" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove native;
      Sys.remove swapped)
    (fun () ->
      W.Pcap.write_file native tr;
      byteswap_pcap native swapped;
      (* Sanity: the transform really produced the swapped magic. *)
      check "swapped magic on disk" true (le32 (read_bytes swapped) 0 = 0xd4c3b2a1);
      let a = read_pcap native in
      let b = read_pcap swapped in
      check_int "same packet count" (Array.length a.W.Trace.packets)
        (Array.length b.W.Trace.packets);
      check "byte order is transparent" true (a.W.Trace.packets = b.W.Trace.packets))

let test_pcap_corrupt_incl () =
  (* A record whose captured-length field exceeds the file's declared
     snaplen must fail cleanly instead of attempting a giant read. *)
  let pkt =
    { W.Packet.src_ip = 1l; dst_ip = 2l; src_port = 3; dst_port = 4;
      proto = W.Packet.Udp; flags = 0; payload_bytes = 64; arrival_ns = 0L }
  in
  let path = Filename.temp_file "clara_corrupt" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      W.Pcap.write_file path (W.Trace.of_packets [| pkt |]);
      let b = read_bytes path in
      (* First record header starts right after the 24-byte global
         header; incl lives at +8.  0x7fffffff dwarfs any snaplen. *)
      Bytes.set b (24 + 8) '\xff';
      Bytes.set b (24 + 9) '\xff';
      Bytes.set b (24 + 10) '\xff';
      Bytes.set b (24 + 11) '\x7f';
      write_bytes path b;
      (* The error should say what went wrong, not just explode. *)
      check "corrupt incl rejected" true
        (match W.Pcap.read_file path with Error m -> contains m "snaplen" | Ok _ -> false);
      (* A global header cut short after the magic. *)
      write_bytes path (Bytes.of_string "\xd4\xc3\xb2\xa1\x02\x00");
      check "short global header rejected" true
        (match W.Pcap.read_file path with
        | Error m -> contains m "global header"
        | Ok _ -> false);
      (* A truncated final record is dropped, the records before it kept. *)
      W.Pcap.write_file path (W.Trace.of_packets [| pkt; pkt |]);
      let b = read_bytes path in
      write_bytes path (Bytes.sub b 0 (Bytes.length b - 3));
      check_int "truncated final record dropped" 1
        (Array.length (read_pcap path).W.Trace.packets))

let prop_trace_respects_profile =
  QCheck.Test.make ~name:"synthesized mix tracks the profile" ~count:20
    (QCheck.pair (QCheck.float_range 0.1 0.9) (QCheck.int_range 100 2000))
    (fun (tcp, flows) ->
      (* The mix is statistical, and Zipf weighting concentrates packets
         on few flows, so the packet-level fraction has high variance:
         need plenty of flows and a generous tolerance. *)
      QCheck.assume (flows >= 300 && tcp >= 0. && tcp <= 1.);
      let p = W.Profile.make ~tcp_fraction:tcp ~flow_count:flows ~packets:5000 () in
      let s = W.Trace.stats (W.Trace.synthesize ~seed:4L p) in
      abs_float (s.W.Trace.tcp_fraction -. tcp) < 0.2
      && s.W.Trace.distinct_flows <= flows)

let prop_pcap_roundtrip =
  QCheck.Test.make ~name:"pcap roundtrip for random profiles" ~count:10
    (QCheck.int_range 1 200)
    (fun n ->
      QCheck.assume (n >= 1);
      let p = W.Profile.make ~packets:n ~flow_count:(max 1 (n / 2)) () in
      let tr = W.Trace.synthesize ~seed:(Int64.of_int n) p in
      let path = Filename.temp_file "clara_prop" ".pcap" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          W.Pcap.write_file path tr;
          let tr2 = read_pcap path in
          Array.length tr2.W.Trace.packets = n
          && Array.for_all2
               (fun (a : W.Packet.t) (b : W.Packet.t) ->
                 a.W.Packet.src_ip = b.W.Packet.src_ip
                 && a.W.Packet.payload_bytes = b.W.Packet.payload_bytes
                 && a.W.Packet.proto = b.W.Packet.proto)
               tr.W.Trace.packets tr2.W.Trace.packets))

(* A capture carries no generating profile: its analysis is solved at
   the mix measured from its packets, so a 1400 B capture is not
   analyzed at the 300 B default. *)
let test_pcap_profile_is_capture_mix () =
  let profile =
    W.Profile.make ~payload:(W.Dist.Fixed 1400) ~flow_count:100 ~packets:500 ()
  in
  let tr = W.Trace.synthesize ~seed:9L profile in
  check "synthetic: the generating profile" true (W.Trace.profile_of tr == profile);
  let path = Filename.temp_file "clara_test" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      W.Pcap.write_file path tr;
      let p = W.Trace.profile_of (read_pcap path) in
      let s = W.Trace.stats tr in
      check "valid" true (W.Profile.validate p = Ok ());
      check "payload" true (W.Profile.mean_payload p = 1400.);
      check "tcp fraction" true (p.W.Profile.tcp_fraction = s.W.Trace.tcp_fraction);
      check_int "flows" s.W.Trace.distinct_flows p.W.Profile.flow_count;
      check_int "packets" 500 p.W.Profile.packets;
      check "syn on new flows" true p.W.Profile.new_flow_syn)

let suite =
  [ Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
    Alcotest.test_case "prng copy" `Quick test_prng_copy;
    Alcotest.test_case "prng ranges" `Quick test_prng_ranges;
    Alcotest.test_case "prng uniformity" `Quick test_prng_uniformity;
    Alcotest.test_case "prng streams match the boxed generator" `Quick test_prng_streams;
    Alcotest.test_case "prng draws allocate nothing" `Quick test_prng_no_alloc;
    Alcotest.test_case "distribution means" `Quick test_dist_means;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "trace synthesis & stats" `Quick test_trace_synthesis;
    Alcotest.test_case "SYN on first flow packet" `Quick test_syn_on_first_packet;
    Alcotest.test_case "packet helpers" `Quick test_packet_helpers;
    Alcotest.test_case "pcap roundtrip" `Quick test_pcap_roundtrip;
    Alcotest.test_case "pcap bad magic" `Quick test_pcap_bad_magic;
    Alcotest.test_case "trace utilities" `Quick test_trace_utilities;
    Alcotest.test_case "pcap snaplen truncation" `Quick test_pcap_snaplen_truncation;
    Alcotest.test_case "zipf sampler memoized" `Quick test_zipf_sampler_memoized;
    Alcotest.test_case "pcap swapped byte order" `Quick test_pcap_swapped_endian;
    Alcotest.test_case "pcap corrupt record length" `Quick test_pcap_corrupt_incl ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_trace_respects_profile; prop_pcap_roundtrip ]
  @ [ Alcotest.test_case "pcap profile is the capture's mix" `Quick
        test_pcap_profile_is_capture_mix ]
