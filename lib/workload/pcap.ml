(* Classic pcap, microsecond timestamps, LINKTYPE_ETHERNET.  The writer
   emits little-endian; the reader accepts both byte orders (magic
   0xa1b2c3d4 native or 0xd4c3b2a1 byte-swapped). *)

let magic = 0xa1b2c3d4
let magic_swapped = 0xd4c3b2a1
let snaplen = 262144

(* -- little-endian byte IO on Buffer / Bytes ----------------------- *)

let w16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))

let w32 buf v =
  w16 buf (v land 0xffff);
  w16 buf ((v lsr 16) land 0xffff)

(* Network byte order (big-endian) for packet contents. *)
let wbe16 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let wbe32 buf (v : int32) =
  let v = Int32.to_int v land 0xffffffff in
  wbe16 buf ((v lsr 16) land 0xffff);
  wbe16 buf (v land 0xffff)

let r16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)
let r32 b off = r16 b off lor (r16 b (off + 2) lsl 16)
let rbe16 b off = (Char.code (Bytes.get b off) lsl 8) lor Char.code (Bytes.get b (off + 1))
let rbe32i b off = (rbe16 b off lsl 16) lor rbe16 b (off + 2)

let rbe32 b off =
  Int32.logor
    (Int32.shift_left (Int32.of_int (rbe16 b off)) 16)
    (Int32.of_int (rbe16 b (off + 2)))

(* -- frame synthesis ------------------------------------------------ *)

let frame_of_packet (p : Packet.t) =
  let buf = Buffer.create 128 in
  (* Ethernet: zero MACs, ethertype IPv4. *)
  for _ = 1 to 12 do Buffer.add_char buf '\000' done;
  wbe16 buf 0x0800;
  let l4_len =
    match p.Packet.proto with Packet.Tcp -> 20 | Packet.Udp -> 8 | Packet.Other _ -> 0
  in
  let ip_total = 20 + l4_len + p.Packet.payload_bytes in
  (* IPv4 header, no options. *)
  Buffer.add_char buf '\x45';
  Buffer.add_char buf '\000';
  wbe16 buf ip_total;
  wbe16 buf 0; (* id *)
  wbe16 buf 0x4000; (* don't fragment *)
  Buffer.add_char buf '\x40'; (* ttl *)
  Buffer.add_char buf (Char.chr (Packet.proto_number p.Packet.proto));
  wbe16 buf 0; (* checksum: left zero; readers we care about don't verify *)
  wbe32 buf p.Packet.src_ip;
  wbe32 buf p.Packet.dst_ip;
  (match p.Packet.proto with
  | Packet.Tcp ->
      wbe16 buf p.Packet.src_port;
      wbe16 buf p.Packet.dst_port;
      wbe32 buf 0l; (* seq *)
      wbe32 buf 0l; (* ack *)
      Buffer.add_char buf '\x50'; (* data offset 5 *)
      Buffer.add_char buf (Char.chr (p.Packet.flags land 0xff));
      wbe16 buf 65535; (* window *)
      wbe16 buf 0; (* checksum *)
      wbe16 buf 0 (* urgent *)
  | Packet.Udp ->
      wbe16 buf p.Packet.src_port;
      wbe16 buf p.Packet.dst_port;
      wbe16 buf (8 + p.Packet.payload_bytes);
      wbe16 buf 0
  | Packet.Other _ -> ());
  let payload = min p.Packet.payload_bytes (snaplen - Buffer.length buf) in
  for _ = 1 to payload do Buffer.add_char buf '\000' done;
  Buffer.contents buf

let write_file path (t : Trace.t) =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let hdr = Buffer.create 24 in
      w32 hdr magic;
      w16 hdr 2; (* major *)
      w16 hdr 4; (* minor *)
      w32 hdr 0; (* thiszone *)
      w32 hdr 0; (* sigfigs *)
      w32 hdr snaplen;
      w32 hdr 1; (* LINKTYPE_ETHERNET *)
      output_string oc (Buffer.contents hdr);
      Array.iter
        (fun (p : Packet.t) ->
          let frame = frame_of_packet p in
          let rec_hdr = Buffer.create 16 in
          let ts_us = Int64.div p.Packet.arrival_ns 1000L in
          w32 rec_hdr (Int64.to_int (Int64.div ts_us 1_000_000L));
          w32 rec_hdr (Int64.to_int (Int64.rem ts_us 1_000_000L));
          w32 rec_hdr (String.length frame);
          w32 rec_hdr (String.length frame);
          output_string oc (Buffer.contents rec_hdr);
          output_string oc frame)
        t.Trace.packets)

let parse_frame bytes ~ts_ns =
  let len = Bytes.length bytes in
  (* Shorter than Ethernet + IPv4: no 5-tuple to read. *)
  if len < Packet.proto_header_bytes (Packet.Other 0) then None
  else if rbe16 bytes 12 <> 0x0800 then None (* not IPv4 *)
  else begin
    let ihl = Char.code (Bytes.get bytes 14) land 0xf in
    let ip_off = 14 in
    let l4_off = ip_off + (ihl * 4) in
    let total = rbe16 bytes (ip_off + 2) in
    let proto_n = Char.code (Bytes.get bytes (ip_off + 9)) in
    let src_ip = rbe32 bytes (ip_off + 12) in
    let dst_ip = rbe32 bytes (ip_off + 16) in
    let proto = Packet.proto_of_number proto_n in
    let get16 off = if off + 1 < len then rbe16 bytes off else 0 in
    let src_port, dst_port, flags, l4_len =
      match proto with
      | Packet.Tcp ->
          let data_off = if l4_off + 12 < len then (Char.code (Bytes.get bytes (l4_off + 12)) lsr 4) * 4 else 20 in
          ( get16 l4_off,
            get16 (l4_off + 2),
            (if l4_off + 13 < len then Char.code (Bytes.get bytes (l4_off + 13)) else 0),
            data_off )
      | Packet.Udp -> (get16 l4_off, get16 (l4_off + 2), 0, 8)
      | Packet.Other _ -> (0, 0, 0, 0)
    in
    let payload_bytes = max 0 (total - (ihl * 4) - l4_len) in
    Some
      {
        Packet.src_ip;
        dst_ip;
        src_port;
        dst_port;
        proto;
        flags;
        payload_bytes;
        arrival_ns = ts_ns;
      }
  end

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let read_channel ic =
  let ghdr = Bytes.create 24 in
  (match really_input ic ghdr 0 24 with
  | () -> ()
  | exception End_of_file ->
      malformed "truncated global header (need 24 bytes)");
  let file_magic = r32 ghdr 0 in
  let swapped = file_magic = magic_swapped in
  if file_magic <> magic && not swapped then
    malformed "bad magic 0x%08x (expected 0x%08x or 0x%08x)" file_magic magic magic_swapped;
  (* Header fields are in the writer's byte order: little-endian for
     the native magic, big-endian for the swapped one. *)
  let ru32 b off = if swapped then rbe32i b off else r32 b off in
  let declared_snaplen =
    let s = ru32 ghdr 16 in
    if s > 0 then s else snaplen
  in
  let packets = ref [] in
  (* A truncated final record (header or frame) ends the capture, as it
     does when tcpdump is killed mid-write. *)
  (try
     while true do
       let rhdr = Bytes.create 16 in
       really_input ic rhdr 0 16;
       let ts_sec = ru32 rhdr 0 and ts_us = ru32 rhdr 4 in
       let incl = ru32 rhdr 8 in
       (* Never trust incl: a corrupt record would otherwise drive a
          multi-GB Bytes.create or an Invalid_argument. *)
       if incl > declared_snaplen then
         malformed
           "record claims %d captured bytes, above the file's snaplen %d (corrupt or \
            truncated capture)"
           incl declared_snaplen;
       let frame = Bytes.create incl in
       really_input ic frame 0 incl;
       let ts_ns =
         Int64.add
           (Int64.mul (Int64.of_int ts_sec) 1_000_000_000L)
           (Int64.mul (Int64.of_int ts_us) 1000L)
       in
       match parse_frame frame ~ts_ns with
       | Some p -> packets := p :: !packets
       | None -> ()
     done
   with End_of_file -> ());
  Trace.of_packets (Array.of_list (List.rev !packets))

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match read_channel ic with
          | trace -> Ok trace
          | exception Malformed m -> Error (Printf.sprintf "%s: malformed pcap: %s" path m)))
