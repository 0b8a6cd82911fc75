(** Bottleneck attribution over a recorded {!Trace}.

    Decomposes each completed packet's latency into five components —
    ingress queueing, compute, accelerator wait, memory stall, and wire
    (DMA + hub) — by summing the trace's span events per kind.  Because
    the engine's spans tile the [arrival, retire] interval exactly, the
    components of every packet sum to its recorded latency
    cycle-for-cycle; the same holds for the per-type means.

    Component mapping: [Queue_wait] → queue; [Compute] and [Accel_use] →
    compute (time the packet spends being worked on, wherever that
    happens); [Accel_wait] → accel-wait (pure serialization); [Mem_access]
    → mem; [Dma_wait], [Dma_xfer] and [Hub] → wire.

    Only packets whose [Arrival] {e and} [Retire] events both survived
    the ring are attributed: the ring drops oldest-first, so a surviving
    [Arrival] guarantees every later event of that packet survived too —
    partial timelines cannot occur. *)

type components = {
  queue : int;       (** Waiting in the ingress queue for a thread. *)
  compute : int;     (** Core compute spans + accelerator service time. *)
  accel_wait : int;  (** Blocked on a busy accelerator. *)
  mem : int;         (** Memory-tier accesses (incl. NUMA penalties). *)
  wire : int;        (** DMA wait + transfer and hub per-packet costs. *)
}

val ctotal : components -> int

type packet = {
  p_seq : int;
  p_prog : int;
  p_thread : int;
  p_type : string;   (** "tcp-syn", "tcp", "udp" or "other" (disjoint). *)
  p_arrival : int;
  p_retire : int;
  p_comp : components;  (** Sums to [p_retire - p_arrival] exactly. *)
}

type row = {
  r_prog : int;
  r_type : string;   (** A packet-type label, or "all" for the per-program total row. *)
  r_count : int;
  r_queue : float;
  r_compute : float;
  r_accel_wait : float;
  r_mem : float;
  r_wire : float;
  r_total : float;   (** Mean latency; equals the sum of the five means. *)
  r_dominant : string;
      (** Largest mean component: "queueing", "compute", "accel-wait",
          "memory" or "wire". *)
}

type report = {
  packets : packet array;  (** Completed packets, in sequence order. *)
  rows : row list;         (** Sorted by (program, type); per-program
                               "all" rows last within each program. *)
  progs : string array;    (** From {!Trace.progs}. *)
  incomplete : int;        (** Packets skipped for ring-truncated timelines. *)
}

val analyze : Trace.t -> report

val slowest : Trace.t -> report -> n:int -> (packet * Trace.event array) list
(** The [n] highest-latency packets, each with its full event timeline
    (events in record order), slowest first. *)

type util = {
  u_name : string;  (** "nat/threads(x240)", "checksum", "dma-rx[1]", "mem-emem", … *)
  u_busy : int;     (** Total busy cycles (across all lanes of a pool). *)
  u_util : float;   (** Busy fraction of the trace's time span. *)
  u_series : float array;  (** Busy fraction per fixed interval. *)
}

val utilization : ?interval:int -> Trace.t -> int * util list
(** Per-unit busy time: hardware threads (bind → retire, aggregated into
    one pool per program and normalized by the distinct threads seen),
    accelerators ([Accel_use]), DMA lanes ([Dma_xfer]) and memory tiers
    ([Mem_access]).  Memory tiers serve threads concurrently, so their
    occupancy can exceed 1.0 — a value of 26 means 26 accesses in flight
    on average, which is exactly the contention signal attribution is
    after.  Returns [(interval_cycles, units)]; [interval] defaults to
    1/64th of the trace's time span.  Units sorted by name. *)

val pp_report : Format.formatter -> report -> unit
(** The per-type attribution table with dominant-bottleneck verdicts. *)

val pp_slowest : Format.formatter -> (packet * Trace.event array) list -> unit
(** Compact text timelines for {!slowest} output. *)

val pp_utilization : Format.formatter -> int * util list -> unit
