(** Minimal libpcap (classic, microsecond) reader/writer.

    The paper's workload profile may be "a pcap trace" (§3.5); this module
    lets Clara ingest real captures and export synthetic ones.  Writing
    synthesizes Ethernet + IPv4 + TCP/UDP headers (payload zero-filled and
    truncated to the snap length); reading parses those headers back into
    {!Packet.t} and ignores non-IPv4 frames.  Reading accepts both byte
    orders (native 0xa1b2c3d4 and byte-swapped 0xd4c3b2a1 magics) and
    rejects records whose captured length exceeds the file's declared
    snap length rather than trusting a corrupt header. *)

val write_file : string -> Trace.t -> unit
(** @raise Sys_error on IO failure. *)

val read_file : string -> (Trace.t, string) result
(** [Error] when the file cannot be opened, its global header is short,
    its magic is neither byte order's, or a record claims more captured
    bytes than the declared snap length.  A truncated {e final} record
    is not an error: reading stops there and the complete records before
    it are kept, as when a capture is cut off mid-write. *)

val snaplen : int
(** Capture length used by the writer (262144, tcpdump's default). *)
