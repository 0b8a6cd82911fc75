(** Execution context for ported NFs on the simulated SmartNIC.

    A "port" of an NF is a handler written against this API — the
    simulator's stand-in for the vendor toolchain.  Each operation
    advances the calling packet's cycle clock according to the simulated
    hardware: flat memory latencies, a line-accurate EMEM cache, a real
    LRU flow cache (misses fall back to the software match/action walk
    and then populate the cache), and serialized accelerators (head-of-
    line blocking emerges when threads contend). *)

type placement = P_ctm | P_imem | P_emem | P_flow_cache

type table_decl = {
  t_name : string;
  t_entries : int;
  t_entry_bytes : int;
  t_placement : placement;
}

type verdict = Emit | Drop

exception Unrunnable of { unit_ : string; op : string }
(** A handler asked for an operation this target cannot run: [unit_]
    names where it would run (["cores"], or say ["checksum
    accelerator"], which the NIC may lack) and [op] the virtual call
    ({!Clara_lnic.Params.vcall_name}).  Raised mid-run, by the
    operation; [Printexc.to_string] gives
    ["Device: the <unit> cannot run <op>"]. *)

(** Shared simulator state (one per run). *)
type sim

(** Per-packet execution context. *)
type t

type handler = t -> Clara_workload.Packet.t -> verdict

type prog = { name : string; tables : table_decl list; handler : handler }

val check : Clara_lnic.Graph.t -> prog list -> (unit, string) result
(** Whether {!create_sim_shared} accepts these programs on this NIC:
    table names must be distinct, and a [P_flow_cache] table needs a NIC
    with an eSwitch or a lookup accelerator.  The error names the
    offending table. *)

val create_sim : Clara_lnic.Graph.t -> prog -> sim
(** @raise Invalid_argument on duplicate table names or a [P_flow_cache]
    table on a NIC with neither an eSwitch nor a lookup accelerator.
    When both are present the eSwitch fronts the flow cache, and on
    off-path targets every miss additionally pays the fabric upcall
    ({!Clara_lnic.Graph.upcall_cycles}) before the software walk. *)

val create_sim_shared : Clara_lnic.Graph.t -> prog list -> sim
(** One simulator hosting several co-resident programs: caches, flow
    cache, accelerators and DMA lanes are shared (that is the point —
    §3.5 interference).  Table names must be globally distinct.
    @raise Invalid_argument on clashes. *)

(** {2 Resolved costs}

    A sim resolves its per-op and per-table costs once, at creation; the
    operations below charge exactly these. *)

val op_cycles : sim -> Clara_lnic.Params.op_class -> int -> int
(** What [n] ops of a class cost on this NIC's cores: the rounded
    [n * Params.op_cost], read from a table made at creation when
    [n = 1].
    @raise Not_found when the parameters lack the class. *)

val table_cycles : sim -> string -> Clara_lnic.Params.vcall -> int
(** The cores' cost of a virtual call evaluated at table [name]'s entry
    count, as table lookups, updates and LPM walks charge it; -1 when
    the cores cannot run it.
    @raise Invalid_argument on an unknown table. *)

(** {2 Steady-state fast path support}

    Used only by [Engine.run ~fast:(Auto _)], the benchmark's fast-path
    cell; every other run executes each packet.  The engine can memoize a packet's resolved cost profile and later
    replay it without re-executing the handler.  A profile is a sequence
    of segments: thread-local ("pure") cycle spans interleaved with
    shared-resource occupations (accelerator, RX/TX DMA).  Replay
    reproduces the execution-side occupancy arithmetic exactly, so
    replayed and executed packets can mix in one run with byte-identical
    results.  A recording is abandoned ([recorded] returns [None]) the
    moment the handler touches mutable simulator state — tables, the
    flow cache, or the EMEM line cache — because a replayed packet skips
    execution and therefore must not have been mutating anything. *)

type recorder
type profile

val fresh_recorder : unit -> recorder
(** One recorder can be reused across packets: {!make_ctx} rearms it. *)

val recorded : t -> profile option
(** The profile captured since {!make_ctx}, or [None] if the handler
    touched mutable state.  Call after the handler (and [wire_tx]). *)

val profile_equal : profile -> profile -> bool

val replay : sim -> start:int -> profile -> int
(** [replay sim ~start p] advances accelerator and DMA occupancy as the
    recorded packet would and returns its completion cycle. *)

val make_ctx :
  ?seq:int ->
  ?prog:int ->
  ?thread:int ->
  ?trace:Trace.t ->
  ?recorder:recorder ->
  sim ->
  now:int ->
  Clara_workload.Packet.t ->
  t
(** [seq]/[prog]/[thread] identify the packet in trace events (defaults
    [-1]/[0]/[-1]); when [trace] is absent, operations record nothing and
    allocate nothing beyond the untraced baseline.  [recorder] arms
    fast-path profile capture for this packet ({!recorded}). *)

val execute :
  sim ->
  seq:int ->
  prog:int ->
  thread:int ->
  trace:Trace.t option ->
  recorder:recorder option ->
  now:int ->
  prog ->
  Clara_workload.Packet.t ->
  t
(** One packet's service from [now]: the wire's RX leg, the program's
    handler, and the TX leg when it emits.  The labels are those of
    {!make_ctx}, none optional, so the engine's per-packet call boxes
    nothing.  Returns the context, whose {!now} is the completion cycle. *)

val now : t -> int

(** {2 Operations a ported handler may use} *)

val parse_header : t -> engine:bool -> unit
val alu : t -> int -> unit
val mul : t -> int -> unit
val hash_op : t -> unit
val move : t -> int -> unit
val branch : t -> unit
val local_read : t -> int -> unit
val local_write : t -> int -> unit
val packet_read : t -> int -> unit
(** [packet_read ctx n]: [n] reads of packet payload; lands in the CTM or
    EMEM depending on packet size vs the CTM threshold (§3.2). *)

val table_lookup : t -> string -> key:int -> bool
(** Hit iff the key was previously inserted (true stateful behaviour —
    the first packet of a flow misses). *)

val table_insert : t -> string -> key:int -> unit
val lpm_lookup : t -> string -> key:int -> bool
(** Flow-cache tables: LRU hit is near-constant; a miss walks the rule
    set in memory and then caches the key.  Memory tables: full software
    match/action walk every time (the Figure 3a regime). *)

val checksum : t -> engine:bool -> bytes:int -> unit
val crypto : t -> engine:bool -> bytes:int -> unit
val scan_payload : t -> bytes:int -> bool
(** Returns whether the scan "matched" (deterministic hash of the packet,
    ~10% of packets). *)

val meter : t -> unit
val count : t -> string -> key:int -> int
(** Atomic counter increment in the table's region; returns the
    counter's new value.  Counters are per table slot (keys sharing a
    slot share one, as in a hardware counter array) and live in the
    {!sim}, so every simulator — and every shard — starts from zero. *)

val fp_op : t -> int -> unit

(** {2 Run-level accounting} *)

val wire_rx : t -> unit
(** Ingress DMA + hub cost for the context's packet; the engine calls
    this before the handler. *)

val wire_tx : t -> unit

val flow_cache_hits : sim -> int
val flow_cache_misses : sim -> int

val accel_busy_cycles : sim -> int
(** Cumulative cycles any accelerator spent servicing requests (execute
    and fast-path replay alike).  Telemetry samples this by delta to
    chart accelerator occupancy over sim time. *)

val dma_busy_cycles : sim -> int
(** Cumulative busy cycles across all RX+TX DMA lanes. *)

val upcalls : sim -> int
(** Flow-cache misses that paid the off-path fabric upcall (always 0 on
    on-path targets). *)

val mem : sim -> Mem_model.t

(** Per-program cache accounting (indexed by the [prog] passed to
    {!make_ctx}; out-of-range indices read as 0).  [run_tenants] reports
    each tenant's own hit rates from these rather than the shared totals
    above. *)

val flow_cache_hits_of : sim -> int -> int
val flow_cache_misses_of : sim -> int -> int
val emem_hits_of : sim -> int -> int
val emem_misses_of : sim -> int -> int
