module Lru = Clara_util.Lru
module L = Clara_lnic
module P = Clara_lnic.Params
module W = Clara_workload

type placement = P_ctm | P_imem | P_emem | P_flow_cache

type table_decl = {
  t_name : string;
  t_entries : int;
  t_entry_bytes : int;
  t_placement : placement;
}

type verdict = Emit | Drop

type table_state = {
  decl : table_decl;
  contents : Lru.t;  (* inserted keys, capacity-bounded *)
  base_addr : int;
  (* What each operation on this table costs, resolved once in
     [create_sim_shared] at the table's entry count: per [vcall_index]
     on the cores, and the flow-cache engine's LPM lookup; -1 where the
     unit cannot run it. *)
  core_cycles : int array;
  fc_lpm_cycles : int;
  (* Per-slot counters behind [count], in pages of [count_page] slots:
     the page table is allocated on the table's first [count] and each
     page on its first touch, so only counter tables pay for them, and a
     page is small enough for the minor heap to take. *)
  mutable counts : int array array;
}

(* Dense indices for the cost tables resolved in [create_sim_shared]. *)
let op_index : P.op_class -> int = function
  | P.Alu -> 0 | P.Mul -> 1 | P.Div -> 2 | P.Fp -> 3 | P.Move -> 4 | P.Branch -> 5
  | P.Hash -> 6 | P.Load -> 7 | P.Store -> 8 | P.Atomic -> 9 | P.Call -> 10

let vcall_index : P.vcall -> int = function
  | P.V_parse_header -> 0 | P.V_modify_header -> 1 | P.V_checksum -> 2
  | P.V_crypto -> 3 | P.V_table_lookup -> 4 | P.V_lpm_lookup -> 5
  | P.V_table_update -> 6 | P.V_payload_scan -> 7 | P.V_meter -> 8
  | P.V_flow_stats -> 9 | P.V_emit -> 10 | P.V_drop -> 11

let n_vcalls = 12 (* = List.length P.all_vcalls, the range of [vcall_index] *)

let all_accel_kinds = L.Unit_.[ Checksum; Crypto; Lookup; Parse; Eswitch ]

let accel_index : L.Unit_.accel_kind -> int = function
  | L.Unit_.Checksum -> 0 | L.Unit_.Crypto -> 1 | L.Unit_.Lookup -> 2
  | L.Unit_.Parse -> 3 | L.Unit_.Eswitch -> 4

type sim = {
  params : P.t;
  memm : Mem_model.t;
  flow_cache : Lru.t option;        (* LRU over flow keys *)
  (* Which accelerator fronts the flow cache (the eSwitch on off-path
     DPUs, the lookup engine on NPU-style parts), and what a miss pays
     to be upcalled to software on an off-path target (0 on-path). *)
  fc_kind : L.Unit_.accel_kind;
  upcall_cycles : int;
  tables : table_state array;  (* in declaration order *)
  (* Everything below down to [egress_cycles] is fixed for a given
     (LNIC, program set) and resolved once in [create_sim_shared], so
     the per-packet path indexes arrays instead of walking the
     parameter lists.  [op_cycles] is per [op_index], with the FPU
     emulation factor applied (nan: class missing from the parameters);
     [core_vc] per [vcall_index]; [accel_vc] per
     [accel_index * n_vcalls + vcall_index]. *)
  op_cycles : float array;
  (* [op_cycles] rounded at n = 1 (what the ports mostly ask for), and
     [core_vc] at n = 1; -1 where the exact path must decide. *)
  op_unit : int array;
  core_unit : int array;
  core_vc : L.Cost_fn.t option array;
  accel_vc : L.Cost_fn.t option array;
  (* Accelerator occupancy per [accel_index]; [has_accel] marks the
     kinds this NIC actually has. *)
  has_accel : bool array;
  accel_free : int array;
  (* The engine [parse_header ~engine:true] runs on, if any. *)
  parse_engine : L.Unit_.accel_kind option;
  ingress_cycles : int option;  (* per-packet cost of the ingress hub *)
  egress_cycles : int option;
  (* Store-and-forward DMA lanes between the wire and packet memory;
     serialization here is what makes latency rate-dependent. *)
  dma_rx_free : int array;
  dma_tx_free : int array;
  islands : int;       (* general-core islands, for CTM NUMA *)
  ctm_remote_penalty : int;
  mutable fc_hits : int;
  mutable fc_misses : int;
  (* Cumulative occupancy: total cycles any accelerator / DMA lane spent
     busy, and how many flow-cache misses were upcalled.  Plain adds on
     paths that already mutate the sim, so they cost nothing measurable;
     telemetry samples them by delta. *)
  mutable accel_busy : int;
  mutable dma_busy : int;
  mutable upcall_count : int;
  (* Per-program cache accounting, indexed by [prog_id].  run_tenants'
     per-tenant hit rates come from here; the shared totals above stay for
     single-program callers. *)
  fc_hits_by : int array;
  fc_misses_by : int array;
  emem_hits_by : int array;
  emem_misses_by : int array;
}

(* A packet's resolved cost profile, for the engine's steady-state fast
   path.  Segments preserve execution order; [Seg_pure] is thread-local
   time (flat compute + uncached memory), the others contend for shared
   resources and must be replayed against live occupancy state. *)
type segment =
  | Seg_pure of int
  | Seg_accel of L.Unit_.accel_kind * int
  | Seg_dma_rx of int
  | Seg_dma_tx of int

type profile = { segs : segment list }

(* Pure-gap recording: rather than instrumenting every [spend], the
   recorder marks the clock at each non-pure boundary (accelerator, DMA)
   and the gap between marks becomes one [Seg_pure].  A recording is
   tainted — and yields no profile — the moment the handler touches
   mutable simulator state (tables, flow cache, EMEM cache), because a
   replayed packet skips execution and so must not have been mutating
   anything. *)
type recorder = {
  mutable mark : int;
  mutable rev_segs : segment list;
  mutable tainted : bool;
}

type t = {
  sim : sim;
  mutable clock : int;
  pkt : W.Packet.t;
  mutable fkey : int;  (* the packet's flow key, -1 until first needed *)
  seq : int;       (* packet sequence number within the run, for tracing *)
  prog_id : int;   (* owning program index (run_tenants tags events with it) *)
  thread : int;    (* bound hardware thread, -1 outside the engine *)
  trace : Trace.t option;
  recorder : recorder option;
}

type handler = t -> W.Packet.t -> verdict

type prog = { name : string; tables : table_decl list; handler : handler }

let fresh_recorder () = { mark = 0; rev_segs = []; tainted = false }

let[@inline] taint ctx =
  match ctx.recorder with None -> () | Some r -> r.tainted <- true

(* Close the pure gap [r.mark, clock) before a shared-resource segment. *)
let[@inline] rec_gap r clock =
  let gap = clock - r.mark in
  if gap > 0 then r.rev_segs <- Seg_pure gap :: r.rev_segs

(* Record a shared-resource segment requested at [req].  Callers build
   [seg] only after matching a live recorder, so an unrecorded packet
   allocates nothing here. *)
let[@inline] rec_shared r ~req seg done_ =
  rec_gap r req;
  r.rev_segs <- seg :: r.rev_segs;
  r.mark <- done_

let recorded ctx =
  match ctx.recorder with
  | None -> None
  | Some r ->
      if r.tainted then None
      else begin
        rec_gap r ctx.clock;
        r.mark <- ctx.clock;
        Some { segs = List.rev r.rev_segs }
      end

let profile_equal (p : profile) (q : profile) = p.segs = q.segs

(* Replay mirrors the execution-side occupancy arithmetic exactly
   (max-with-free for accelerators, earliest-free lane for DMA), so a
   replayed packet advances shared state byte-identically to running the
   handler — which is what lets fast- and slow-path packets mix in one
   run. *)
let replay_dma lanes clock cycles =
  let li = ref 0 in
  for i = 1 to Array.length lanes - 1 do
    if lanes.(i) < lanes.(!li) then li := i
  done;
  let start = Int.max clock lanes.(!li) in
  let done_ = start + cycles in
  lanes.(!li) <- done_;
  done_

let replay sim ~start (p : profile) =
  let clock = ref start in
  List.iter
    (fun seg ->
      match seg with
      | Seg_pure c -> clock := !clock + c
      | Seg_accel (kind, c) ->
          let ki = accel_index kind in
          if not sim.has_accel.(ki) then clock := !clock + c
          else begin
            let s = Int.max !clock sim.accel_free.(ki) in
            let done_ = s + c in
            sim.accel_free.(ki) <- done_;
            sim.accel_busy <- sim.accel_busy + c;
            clock := done_
          end
      | Seg_dma_rx c ->
          sim.dma_busy <- sim.dma_busy + c;
          clock := replay_dma sim.dma_rx_free !clock c
      | Seg_dma_tx c ->
          sim.dma_busy <- sim.dma_busy + c;
          clock := replay_dma sim.dma_tx_free !clock c)
    p.segs;
  !clock

let region_of_placement = function
  | P_ctm -> Mem_model.Ctm
  | P_imem -> Mem_model.Imem
  | P_emem -> Mem_model.Emem
  | P_flow_cache -> invalid_arg "Device: flow-cache tables have no memory region"

(* The eSwitch wins when both are present: it is the wire-fronting
   match-action engine, the lookup unit a core-driven sidekick. *)
let flow_cache_accel lnic =
  match L.Graph.find_accelerator lnic L.Unit_.Eswitch with
  | Some _ -> Some L.Unit_.Eswitch
  | None -> (
      match L.Graph.find_accelerator lnic L.Unit_.Lookup with
      | Some _ -> Some L.Unit_.Lookup
      | None -> None)

let check lnic progs =
  let has_fc = flow_cache_accel lnic <> None in
  let rec go seen = function
    | [] -> Ok ()
    | d :: rest ->
        if List.mem d.t_name seen then
          Error (Printf.sprintf "duplicate table '%s'" d.t_name)
        else if d.t_placement = P_flow_cache && not has_fc then
          Error (Printf.sprintf "table '%s' wants a flow cache this NIC lacks" d.t_name)
        else go (d.t_name :: seen) rest
  in
  go [] (List.concat_map (fun p -> p.tables) progs)

let create_sim_shared lnic progs =
  (match check lnic progs with Ok () -> () | Error m -> invalid_arg ("Device: " ^ m));
  let params = lnic.L.Graph.params in
  let fc_accel = flow_cache_accel lnic in
  let fc_kind = Option.value ~default:L.Unit_.Lookup fc_accel in
  let at f n = match f with Some f -> L.Cost_fn.eval_int f n | None -> -1 in
  let core_vc = Array.make n_vcalls None in
  List.iter (fun vc -> core_vc.(vcall_index vc) <- P.core_vcall_cost params vc) P.all_vcalls;
  let next_base = ref 0x1000_0000 in
  let tables =
    Array.of_list (List.concat_map (fun p -> p.tables) progs)
    |> Array.map (fun decl ->
           let ts =
             { decl;
               contents = Lru.create ~capacity:(max 1 decl.t_entries);
               base_addr = !next_base;
               core_cycles = Array.map (fun f -> at f decl.t_entries) core_vc;
               fc_lpm_cycles =
                 at (P.accel_vcall_cost params fc_kind P.V_lpm_lookup) decl.t_entries;
               counts = [||] }
           in
           (* Slide bases apart so tables never share cache lines. *)
           next_base := !next_base + (decl.t_entries * decl.t_entry_bytes) + 0x10_0000;
           ts)
  in
  let flow_cache =
    match fc_accel with
    | None -> None
    | Some kind ->
        let sram = P.accel_sram params kind in
        (* Flow-cache entries are ~32B each. *)
        Some (Lru.create ~capacity:(max 1 (sram / 32)))
  in
  let has_accel = Array.make (List.length all_accel_kinds) false in
  Array.iter
    (fun u ->
      match u.L.Unit_.kind with
      | L.Unit_.Accelerator k -> has_accel.(accel_index k) <- true
      | L.Unit_.General_core _ -> ())
    lnic.L.Graph.units;
  let has_fpu =
    match L.Graph.general_cores lnic with
    | { L.Unit_.kind = L.Unit_.General_core { has_fpu; _ }; _ } :: _ -> has_fpu
    | _ -> false
  in
  let op_cycles = Array.make (List.length P.all_op_classes) Float.nan in
  List.iter
    (fun op ->
      match P.op_cost params op ~has_fpu with
      | c -> op_cycles.(op_index op) <- c
      | exception Not_found -> ())
    P.all_op_classes;
  let op_unit =
    Array.map
      (fun c ->
        if Float.is_nan c then -1
        else
          let u = int_of_float (Float.round c) in
          if u >= 0 then u else -1)
      op_cycles
  in
  let core_unit = Array.map (fun f -> at f 1) core_vc in
  let accel_vc = Array.make (List.length all_accel_kinds * n_vcalls) None in
  List.iter
    (fun kind ->
      List.iter
        (fun vc ->
          accel_vc.((accel_index kind * n_vcalls) + vcall_index vc) <-
            P.accel_vcall_cost params kind vc)
        P.all_vcalls)
    all_accel_kinds;
  (* The dedicated parser when the NIC has one; off-path parts parse in
     the eSwitch match-action pipeline instead.  A NIC with neither
     (e.g. a plain ARM SoC) parses on the cores even when the program
     asks for the engine — that's what the hardware would do. *)
  let parse_engine =
    let kind =
      match L.Graph.find_accelerator lnic L.Unit_.Parse with
      | Some _ -> L.Unit_.Parse
      | None -> fc_kind
    in
    if has_accel.(accel_index kind) && P.accel_vcall_cost params kind P.V_parse_header <> None
    then Some kind
    else None
  in
  let hub_cycles kind = Option.map (fun h -> h.L.Hub.per_packet_cycles) (L.Graph.hub lnic kind) in
  let islands =
    L.Graph.general_cores lnic
    |> List.filter_map (fun u -> u.L.Unit_.island)
    |> List.sort_uniq compare |> List.length |> max 1
  in
  let nprogs = max 1 (List.length progs) in
  {
    params;
    memm = Mem_model.create lnic;
    flow_cache;
    fc_kind;
    upcall_cycles = L.Graph.upcall_cycles lnic;
    tables;
    op_cycles;
    op_unit;
    core_unit;
    core_vc;
    accel_vc;
    has_accel;
    accel_free = Array.make (Array.length has_accel) 0;
    parse_engine;
    ingress_cycles = hub_cycles `Ingress;
    egress_cycles = hub_cycles `Egress;
    dma_rx_free = Array.make L.Graph.dma_lanes 0;
    dma_tx_free = Array.make L.Graph.dma_lanes 0;
    islands;
    (* Remote-island CTM penalty, read off an actual cross-island bus when
       the topology has one. *)
    ctm_remote_penalty = L.Graph.max_access_weight lnic;
    fc_hits = 0;
    fc_misses = 0;
    accel_busy = 0;
    dma_busy = 0;
    upcall_count = 0;
    fc_hits_by = Array.make nprogs 0;
    fc_misses_by = Array.make nprogs 0;
    emem_hits_by = Array.make nprogs 0;
    emem_misses_by = Array.make nprogs 0;
  }

let create_sim lnic prog = create_sim_shared lnic [ prog ]

(* Labelled rather than optional, so the engine's per-packet call boxes
   nothing. *)
let ctx_of sim ~seq ~prog ~thread ~trace ~recorder ~now pkt =
  (* Rearm a (possibly reused) recorder for this packet. *)
  (match recorder with
  | None -> ()
  | Some r ->
      r.mark <- now;
      r.rev_segs <- [];
      r.tainted <- false);
  { sim; clock = now; pkt; fkey = -1; seq; prog_id = prog; thread; trace; recorder }

let make_ctx ?(seq = -1) ?(prog = 0) ?(thread = -1) ?trace ?recorder sim ~now pkt =
  ctx_of sim ~seq ~prog ~thread ~trace ~recorder ~now pkt

let now ctx = ctx.clock

let spend ctx cycles = ctx.clock <- ctx.clock + Int.max 0 cycles

(* Trace emission.  Every helper is a plain [match] on the optional sink:
   with tracing off the hot loop does no allocation and no extra stores
   (kind constructors are constant, labels are literals, timestamps are
   immediate ints). *)

let[@inline] emit ctx ~kind ~label ~t0 ~arg =
  match ctx.trace with
  | None -> ()
  | Some s ->
      Trace.record s ~seq:ctx.seq ~prog:ctx.prog_id ~thread:ctx.thread ~kind ~label ~t0
        ~t1:ctx.clock ~arg

let[@inline] emit_compute ctx ~label ~t0 ~arg =
  emit ctx ~kind:Trace.Compute ~label ~t0 ~arg

let[@inline] emit_mem ctx ~region ~outcome ~t0 =
  match ctx.trace with
  | None -> ()
  | Some s ->
      let arg =
        match (outcome : Mem_model.outcome) with
        | Mem_model.Hit -> 1
        | Mem_model.Miss -> 0
        | Mem_model.Uncached -> -1
      in
      Trace.record s ~seq:ctx.seq ~prog:ctx.prog_id ~thread:ctx.thread
        ~kind:Trace.Mem_access
        ~label:(Mem_model.region_name region)
        ~t0 ~t1:ctx.clock ~arg

let op_cycles sim cls n =
  let i = op_index cls in
  let u = sim.op_unit.(i) in
  if n = 1 && u >= 0 then u
  else begin
    let c = sim.op_cycles.(i) in
    (* A class missing from the parameters fails as [Params.op_cost] does. *)
    if Float.is_nan c then raise Not_found;
    int_of_float (Float.round (float_of_int n *. c))
  end

let op_cost ctx cls n = spend ctx (op_cycles ctx.sim cls n)

(* Serialize on an accelerator: wait for it, occupy it for [cycles]. *)
let use_accel ctx kind cycles =
  let sim = ctx.sim in
  let ki = accel_index kind in
  if not sim.has_accel.(ki) then
    invalid_arg "Device.use_accel: no such accelerator on this NIC";
  let req = ctx.clock in
  let start = Int.max req sim.accel_free.(ki) in
  let done_ = start + cycles in
  sim.accel_free.(ki) <- done_;
  sim.accel_busy <- sim.accel_busy + cycles;
  ctx.clock <- done_;
  (match ctx.recorder with
  | Some r when not r.tainted -> rec_shared r ~req (Seg_accel (kind, cycles)) done_
  | _ -> ());
  match ctx.trace with
  | None -> ()
  | Some s ->
      let label = L.Unit_.accel_name kind in
      if start > req then
        Trace.record s ~seq:ctx.seq ~prog:ctx.prog_id ~thread:ctx.thread
          ~kind:Trace.Accel_wait ~label ~t0:req ~t1:start ~arg:0;
      Trace.record s ~seq:ctx.seq ~prog:ctx.prog_id ~thread:ctx.thread
        ~kind:Trace.Accel_use ~label ~t0:start ~t1:done_ ~arg:cycles

let core_vcall_cost ctx vc n =
  match ctx.sim.core_vc.(vcall_index vc) with
  | Some f -> L.Cost_fn.eval_int f n
  | None -> invalid_arg "Device: core cannot run this operation"

let accel_vcall_cost ctx kind vc n =
  match ctx.sim.accel_vc.((accel_index kind * n_vcalls) + vcall_index vc) with
  | Some f -> L.Cost_fn.eval_int f n
  | None -> invalid_arg "Device: accelerator cannot run this operation"

(* A port names its table with the string it declared it with, so the
   physical test usually settles it; [String.equal] covers the rest. *)
let find_table (sim : sim) name =
  let ts = sim.tables in
  let i = ref 0 in
  while
    !i < Array.length ts
    && not (ts.(!i).decl.t_name == name || String.equal ts.(!i).decl.t_name name)
  do
    incr i
  done;
  if !i = Array.length ts then
    invalid_arg (Printf.sprintf "Device: unknown table '%s'" name);
  ts.(!i)

let table ctx name = find_table ctx.sim name

let[@inline] core_resolved c =
  if c < 0 then invalid_arg "Device: core cannot run this operation" else c

let table_cycles (sim : sim) name vc = (find_table sim name).core_cycles.(vcall_index vc)

let flow_key ctx =
  if ctx.fkey < 0 then ctx.fkey <- W.Packet.flow_key ctx.pkt;
  ctx.fkey

(* The island this packet's thread runs on (packets spread across
   islands; the spread is keyed on the flow so it is deterministic). *)
let packet_island ctx =
  if ctx.sim.islands <= 1 then 0
  else flow_key ctx mod ctx.sim.islands

(* EMEM cache outcomes feed the per-program hit-rate accounting, and any
   cached access taints the recorder: the LRU line cache is mutable
   shared state, so a packet that touched it cannot be replayed. *)
let[@inline] note_cached ctx ~hits ~misses =
  let s = ctx.sim in
  if ctx.prog_id >= 0 && ctx.prog_id < Array.length s.emem_hits_by then begin
    s.emem_hits_by.(ctx.prog_id) <- s.emem_hits_by.(ctx.prog_id) + hits;
    s.emem_misses_by.(ctx.prog_id) <- s.emem_misses_by.(ctx.prog_id) + misses
  end;
  taint ctx

let[@inline] note_mem_outcome ctx =
  match Mem_model.last_outcome ctx.sim.memm with
  | Mem_model.Uncached -> ()
  | Mem_model.Hit -> note_cached ctx ~hits:1 ~misses:0
  | Mem_model.Miss -> note_cached ctx ~hits:0 ~misses:1

let[@inline] slot_of (ts : table_state) key = (key land max_int) mod ts.decl.t_entries

(* One memory access on the packet's behalf: spend its cycles and
   account its cache outcome ([Mem_model.last_outcome] keeps it for the
   trace). *)
let[@inline] mem_access ctx region ~mode ~addr =
  spend ctx (Mem_model.access ctx.sim.memm region ~mode ~addr);
  note_mem_outcome ctx

let table_access ctx (ts : table_state) ~mode ~key =
  let region = region_of_placement ts.decl.t_placement in
  let addr = ts.base_addr + (slot_of ts key * ts.decl.t_entry_bytes) in
  let t0 = ctx.clock in
  mem_access ctx region ~mode ~addr;
  let outcome = Mem_model.last_outcome ctx.sim.memm in
  (* CTM is per-island: a CTM-resident table lives on island 0, and
     threads elsewhere pay the cross-island bus (NUMA, §3.1) — an effect
     the static predictor does not model.  The penalty is part of the
     access's memory-stall span. *)
  if region = Mem_model.Ctm && packet_island ctx <> 0 then
    spend ctx ctx.sim.ctm_remote_penalty;
  emit_mem ctx ~region ~outcome ~t0

(* ------------------------------------------------------------------ *)
(* Handler operations                                                  *)

let parse_header ctx ~engine =
  match if engine then ctx.sim.parse_engine else None with
  | Some kind ->
      use_accel ctx kind
        (accel_vcall_cost ctx kind P.V_parse_header (W.Packet.header_bytes ctx.pkt))
  | None -> begin
    let t0 = ctx.clock in
    spend ctx (core_vcall_cost ctx P.V_parse_header (W.Packet.header_bytes ctx.pkt));
    emit_compute ctx ~label:"parse" ~t0 ~arg:(W.Packet.header_bytes ctx.pkt)
  end

let alu ctx n =
  let t0 = ctx.clock in
  op_cost ctx P.Alu n;
  emit_compute ctx ~label:"alu" ~t0 ~arg:n

let mul ctx n =
  let t0 = ctx.clock in
  op_cost ctx P.Mul n;
  emit_compute ctx ~label:"mul" ~t0 ~arg:n

let hash_op ctx =
  let t0 = ctx.clock in
  op_cost ctx P.Hash 1;
  emit_compute ctx ~label:"hash" ~t0 ~arg:1

let move ctx n =
  let t0 = ctx.clock in
  op_cost ctx P.Move n;
  emit_compute ctx ~label:"move" ~t0 ~arg:n

let branch ctx =
  let t0 = ctx.clock in
  op_cost ctx P.Branch 1;
  emit_compute ctx ~label:"branch" ~t0 ~arg:1

let fp_op ctx n =
  let t0 = ctx.clock in
  op_cost ctx P.Fp n;
  emit_compute ctx ~label:"fp" ~t0 ~arg:n

let local_read ctx n =
  let t0 = ctx.clock in
  for _ = 1 to n do
    spend ctx (Mem_model.access ctx.sim.memm Mem_model.Local ~mode:`Read ~addr:0)
  done;
  emit_mem ctx ~region:Mem_model.Local ~outcome:Mem_model.Uncached ~t0

let local_write ctx n =
  let t0 = ctx.clock in
  for _ = 1 to n do
    spend ctx (Mem_model.access ctx.sim.memm Mem_model.Local ~mode:`Write ~addr:0)
  done;
  emit_mem ctx ~region:Mem_model.Local ~outcome:Mem_model.Uncached ~t0

let packet_region ctx =
  if W.Packet.total_bytes ctx.pkt <= ctx.sim.params.P.packet_ctm_threshold then
    Mem_model.Ctm
  else Mem_model.Emem

let packet_read ctx n =
  let region = packet_region ctx in
  let base = 0x7000_0000 + (flow_key ctx land 0xffff) * 2048 in
  for i = 0 to n - 1 do
    let t0 = ctx.clock in
    mem_access ctx region ~mode:`Read ~addr:(base + (i * 64));
    emit_mem ctx ~region ~outcome:(Mem_model.last_outcome ctx.sim.memm) ~t0
  done

let table_lookup ctx name ~key =
  taint ctx;
  let ts = table ctx name in
  let t0 = ctx.clock in
  spend ctx (core_resolved ts.core_cycles.(vcall_index P.V_table_lookup));
  emit_compute ctx ~label:"table-lookup" ~t0 ~arg:ts.decl.t_entries;
  (* Two probe reads: bucket head + entry. *)
  table_access ctx ts ~mode:`Read ~key;
  table_access ctx ts ~mode:`Read ~key;
  Lru.mem ts.contents key

let table_insert ctx name ~key =
  taint ctx;
  let ts = table ctx name in
  let t0 = ctx.clock in
  spend ctx (core_resolved ts.core_cycles.(vcall_index P.V_table_update));
  emit_compute ctx ~label:"table-update" ~t0 ~arg:ts.decl.t_entries;
  table_access ctx ts ~mode:`Read ~key;
  table_access ctx ts ~mode:`Write ~key;
  ignore (Lru.touch ts.contents key)

(* Software match/action walk: per-entry compute plus one memory burst
   per 8 entries (entries are small relative to a 64B line/burst). *)
let lpm_walk ctx (ts : table_state) region =
  let t0 = ctx.clock in
  spend ctx (core_resolved ts.core_cycles.(vcall_index P.V_lpm_lookup));
  emit_compute ctx ~label:"lpm-walk" ~t0 ~arg:ts.decl.t_entries;
  let bursts = max 1 (ts.decl.t_entries / 8) in
  let stride = 8 * ts.decl.t_entry_bytes in
  match ctx.trace with
  | Some _ ->
      (* One span per burst. *)
      for i = 0 to bursts - 1 do
        let t0 = ctx.clock in
        mem_access ctx region ~mode:`Read ~addr:(ts.base_addr + (i * stride));
        emit_mem ctx ~region ~outcome:(Mem_model.last_outcome ctx.sim.memm) ~t0
      done
  | None ->
      (* One charge for the whole walk: a walk repeated over an
         unchanged EMEM cache does not touch the cache at all. *)
      let m = ctx.sim.memm in
      let hits = Mem_model.emem_hits m and misses = Mem_model.emem_misses m in
      spend ctx
        (Mem_model.access_run m region ~mode:`Read ~base:ts.base_addr ~stride ~count:bursts);
      match Mem_model.last_outcome m with
      | Mem_model.Uncached -> ()
      | Mem_model.Hit | Mem_model.Miss ->
          note_cached ctx ~hits:(Mem_model.emem_hits m - hits)
            ~misses:(Mem_model.emem_misses m - misses)

let[@inline] bump arr i =
  if i >= 0 && i < Array.length arr then arr.(i) <- arr.(i) + 1

let lpm_lookup ctx name ~key =
  taint ctx;
  let ts = table ctx name in
  match ts.decl.t_placement with
  | P_flow_cache -> (
      match ctx.sim.flow_cache with
      | None -> invalid_arg "Device.lpm_lookup: no flow cache"
      | Some fc ->
          let kind = ctx.sim.fc_kind in
          let cost = ts.fc_lpm_cycles in
          if cost < 0 then invalid_arg "Device: accelerator cannot run this operation";
          if Lru.touch fc key then begin
            ctx.sim.fc_hits <- ctx.sim.fc_hits + 1;
            bump ctx.sim.fc_hits_by ctx.prog_id;
            use_accel ctx kind cost;
            true
          end
          else begin
            (* Miss: consult the rule set in memory, result gets cached. *)
            ctx.sim.fc_misses <- ctx.sim.fc_misses + 1;
            bump ctx.sim.fc_misses_by ctx.prog_id;
            use_accel ctx kind cost;
            (* Off-path: the miss is upcalled across the internal fabric
               before software can walk the rules (the path is already
               tainted, so the recorder never replays this). *)
            if ctx.sim.upcall_cycles > 0 then begin
              let t0 = ctx.clock in
              ctx.sim.upcall_count <- ctx.sim.upcall_count + 1;
              spend ctx ctx.sim.upcall_cycles;
              emit ctx ~kind:Trace.Hub ~label:"upcall" ~t0 ~arg:0
            end;
            (* The walk happens in EMEM regardless of the declared
               placement for flow-cache tables. *)
            lpm_walk ctx ts Mem_model.Emem;
            true
          end)
  | P_ctm | P_imem | P_emem ->
      lpm_walk ctx ts (region_of_placement ts.decl.t_placement);
      true

let checksum ctx ~engine ~bytes =
  if engine then
    use_accel ctx L.Unit_.Checksum (accel_vcall_cost ctx L.Unit_.Checksum P.V_checksum bytes)
  else begin
    let t0 = ctx.clock in
    spend ctx (core_vcall_cost ctx P.V_checksum bytes);
    emit_compute ctx ~label:"checksum" ~t0 ~arg:bytes
  end

let crypto ctx ~engine ~bytes =
  if engine then
    use_accel ctx L.Unit_.Crypto (accel_vcall_cost ctx L.Unit_.Crypto P.V_crypto bytes)
  else begin
    let t0 = ctx.clock in
    spend ctx (core_vcall_cost ctx P.V_crypto bytes);
    emit_compute ctx ~label:"crypto" ~t0 ~arg:bytes
  end

let scan_payload ctx ~bytes =
  let t0 = ctx.clock in
  spend ctx (core_vcall_cost ctx P.V_payload_scan bytes);
  emit_compute ctx ~label:"payload-scan" ~t0 ~arg:bytes;
  (* Deterministic ~10% match rate keyed on the packet. *)
  flow_key ctx mod 10 = 0

let meter ctx =
  let t0 = ctx.clock in
  spend ctx (core_resolved ctx.sim.core_unit.(vcall_index P.V_meter));
  emit_compute ctx ~label:"meter" ~t0 ~arg:1

(* The largest array the minor heap allocates (Max_young_wosize). *)
let count_page = 256

let count ctx name ~key =
  taint ctx;
  let ts = table ctx name in
  let t0 = ctx.clock in
  spend ctx (core_resolved ctx.sim.core_unit.(vcall_index P.V_flow_stats));
  emit_compute ctx ~label:"flow-stats" ~t0 ~arg:1;
  table_access ctx ts ~mode:`Atomic ~key;
  if Array.length ts.counts = 0 then
    ts.counts <- Array.make ((ts.decl.t_entries + count_page - 1) / count_page) [||];
  let slot = slot_of ts key in
  let pi = slot / count_page in
  if Array.length ts.counts.(pi) = 0 then ts.counts.(pi) <- Array.make count_page 0;
  let page = ts.counts.(pi) in
  let c = page.(slot mod count_page) + 1 in
  page.(slot mod count_page) <- c;
  c

(* Occupy the earliest-free DMA lane of [lanes] (the [dir] leg's) for
   [cycles]; the packet waits when all lanes are busy (rate-dependent
   queueing). *)
let use_dma ctx lanes dir cycles =
  let li = ref 0 in
  for i = 1 to Array.length lanes - 1 do
    if lanes.(i) < lanes.(!li) then li := i
  done;
  let req = ctx.clock in
  let start = Int.max req lanes.(!li) in
  let done_ = start + cycles in
  lanes.(!li) <- done_;
  ctx.sim.dma_busy <- ctx.sim.dma_busy + cycles;
  ctx.clock <- done_;
  (match ctx.recorder with
  | Some r when not r.tainted ->
      rec_shared r ~req
        (match dir with `Rx -> Seg_dma_rx cycles | `Tx -> Seg_dma_tx cycles)
        done_
  | _ -> ());
  match ctx.trace with
  | None -> ()
  | Some s ->
      let label = match dir with `Rx -> "rx" | `Tx -> "tx" in
      if start > req then
        Trace.record s ~seq:ctx.seq ~prog:ctx.prog_id ~thread:ctx.thread
          ~kind:Trace.Dma_wait ~label ~t0:req ~t1:start ~arg:!li;
      Trace.record s ~seq:ctx.seq ~prog:ctx.prog_id ~thread:ctx.thread
        ~kind:Trace.Dma_xfer ~label ~t0:start ~t1:done_ ~arg:!li

let wire_rx ctx =
  let bytes = W.Packet.total_bytes ctx.pkt in
  let cycles = L.Cost_fn.eval_int ctx.sim.params.P.wire_ingress bytes in
  use_dma ctx ctx.sim.dma_rx_free `Rx cycles;
  match ctx.sim.ingress_cycles with
  | Some c ->
      let t0 = ctx.clock in
      spend ctx c;
      emit ctx ~kind:Trace.Hub ~label:"ingress" ~t0 ~arg:0
  | None -> ()

let wire_tx ctx =
  let bytes = W.Packet.total_bytes ctx.pkt in
  let cycles = L.Cost_fn.eval_int ctx.sim.params.P.wire_egress bytes in
  use_dma ctx ctx.sim.dma_tx_free `Tx cycles;
  match ctx.sim.egress_cycles with
  | Some c ->
      let t0 = ctx.clock in
      spend ctx c;
      emit ctx ~kind:Trace.Hub ~label:"egress" ~t0 ~arg:0
  | None -> ()

let execute sim ~seq ~prog ~thread ~trace ~recorder ~now (p : prog) pkt =
  let ctx = ctx_of sim ~seq ~prog ~thread ~trace ~recorder ~now pkt in
  wire_rx ctx;
  (match p.handler ctx pkt with Emit -> wire_tx ctx | Drop -> ());
  ctx

let flow_cache_hits sim = sim.fc_hits
let flow_cache_misses sim = sim.fc_misses
let accel_busy_cycles sim = sim.accel_busy
let dma_busy_cycles sim = sim.dma_busy
let upcalls sim = sim.upcall_count
let mem sim = sim.memm

let[@inline] cell arr i = if i >= 0 && i < Array.length arr then arr.(i) else 0
let flow_cache_hits_of sim i = cell sim.fc_hits_by i
let flow_cache_misses_of sim i = cell sim.fc_misses_by i
let emem_hits_of sim i = cell sim.emem_hits_by i
let emem_misses_of sim i = cell sim.emem_misses_by i
