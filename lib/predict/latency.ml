module Lru = Clara_util.Lru
module Order_stat = Clara_util.Order_stat
module L = Clara_lnic
module D = Clara_dataflow
module Ir = Clara_cir.Ir
module W = Clara_workload
module P = Clara_lnic.Params

type config = {
  include_wire : bool;
  flow_cache_hit_ratio : float option;
}

let default_config = { include_wire = true; flow_cache_hit_ratio = None }

let guard_prior = function
  | Ir.G_scan_match -> 0.1
  | Ir.G_count_exceeds -> 0.05
  | _ -> 0.5

(* Seeds the draws of the guards only [guard_prior] decides. *)
let seed = 7L

exception Unpriceable of { node : int; op : string; unit_ : string }

let () =
  Printexc.register_printer (function
    | Unpriceable { node; op; unit_ } ->
        Some (Printf.sprintf "Latency: node n%d (%s) cannot run on its mapped unit %s" node op unit_)
    | _ -> None)

(* What a flow-cache miss adds to a node, beyond its mapped price. *)
type miss_regime =
  | No_upcall
  | Upcall of Pricer.table option
      (* An eSwitch-mapped stateful vcall on an off-path target: a miss
         pays the upcall plus this software price on the first general
         core (none: no core, or it cannot run the node; charged 0). *)

(* What the walk prices a node from, resolved in [create]: its price
   table on its mapped unit and its miss regime. *)
type slot = { table : Pricer.table; miss : miss_regime }

(* One state name's tracked contents, resolved in [create]: the keys its
   last declaration has seen (bounded), and whether any declaration is
   an LPM/route table — provisioned configuration, not learned state,
   so matches against it succeed. *)
type state = { name : string; seen : Lru.t option; provisioned : bool }

(* What a name no declaration gives reads: never seen, not provisioned. *)
let undeclared = { name = ""; seen = None; provisioned = false }

type t = {
  lnic : L.Graph.t;
  df : D.Graph.t;
  pricer : Pricer.t;
  config : config;
  states : state array;  (* one per distinct state name *)
  (* Off-path only: the eSwitch flow cache, sized by its SRAM.  A vcall
     on cached flows runs at the hardware hit price; a miss pays the
     upcall plus the software cost of the same node (two-regime). *)
  eswitch_cache : Lru.t option;
  upcall_cycles : float;
  slots : slot array;  (* by node id *)
  wire : Pricer.wire;  (* resolved once: no per-packet leg lookup *)
  (* The walk's scratch prices: the mapped one a sink reads, and the
     software replay of a miss. *)
  price : D.Cost.price;
  miss_price : D.Cost.price;
  memo : Pricer.sizes_memo;  (* the sizes a table miss evaluates at *)
  (* The components sink's per-packet node sums: total (with miss
     extras), mem and accel. *)
  sums : D.Cost.price;
  components : D.Node.t -> D.Cost.price -> float -> unit;
  mutable flow : int;  (* the walked packet's flow key *)
  mutable rng : W.Prng.t;
}

(* One [state] per declared name: the last declaration's table, and
   provisioned when any declaration of the name is an LPM table. *)
let resolve_states (decls : Ir.state_obj list) =
  let named name (s : Ir.state_obj) = String.equal s.Ir.st_name name in
  List.sort_uniq String.compare (List.map (fun (s : Ir.state_obj) -> s.Ir.st_name) decls)
  |> List.map (fun name ->
         let last = List.find (named name) (List.rev decls) in
         { name;
           seen = Some (Lru.create ~capacity:(max 1 last.Ir.st_entries));
           provisioned =
             List.exists (fun s -> named name s && s.Ir.st_kind = Clara_cir.Ast.S_lpm) decls })
  |> Array.of_list

(* A scan of a handful of names: no hashing, no allocation. *)
let rec find_state (states : state array) name i =
  if i = Array.length states then undeclared
  else
    let st = states.(i) in
    if st.name == name || String.equal st.name name then st else find_state states name (i + 1)

let state t name = find_state t.states name 0

let create ?(config = default_config) lnic df mapping =
  let eswitch_cache =
    if lnic.L.Graph.arch = L.Graph.Off_path
       && L.Graph.find_accelerator lnic L.Unit_.Eswitch <> None
    then
      let sram = P.accel_sram lnic.L.Graph.params L.Unit_.Eswitch in
      (* ~32 B per match-action entry, as in the simulator's flow cache. *)
      if sram > 0 then Some (Lru.create ~capacity:(max 1 (sram / 32))) else None
    else None
  in
  let pricer = Pricer.create ~mapping lnic df in
  let upcall_cycles = float_of_int (L.Graph.upcall_cycles lnic) in
  (* The miss regime's software price is resolved here, on the first
     general core, for exactly the nodes that can miss: zero upcall
     cost (every on-path target) means no node does, and only stateful
     vcalls blend — the flow cache caches flows, so stateless eSwitch
     work (parsing, header rewrites) is hit-priced pipeline hardware. *)
  let miss_regime (n : D.Node.t) =
    match ((Pricer.mapped_unit pricer n).L.Unit_.kind, n.D.Node.kind) with
    | L.Unit_.Accelerator L.Unit_.Eswitch, D.Node.N_vcall v
      when upcall_cycles <> 0. && v.Ir.state <> None ->
        Upcall
          (match L.Graph.general_cores lnic with
          | [] -> None
          | core :: _ -> Option.map Pricer.table (Pricer.resolve_on pricer core n))
    | _ -> No_upcall
  in
  let slot (n : D.Node.t) =
    match Pricer.resolved pricer n with
    | None ->
        (* The mapping guarantees executability; a node it put on a unit
           that cannot run it is found here, before any packet. *)
        raise
          (Unpriceable
             { node = n.D.Node.id;
               op =
                 (match n.D.Node.kind with
                 | D.Node.N_vcall v -> P.vcall_name v.Ir.vc
                 | D.Node.N_compute _ -> "compute");
               unit_ = (Pricer.mapped_unit pricer n).L.Unit_.name })
    | Some r -> { table = Pricer.table r; miss = miss_regime n }
  in
  let scratch () = { D.Cost.total = 0.; mem = 0.; accel = 0. } in
  let sums = scratch () in
  (* Built once, so a components walk allocates no [charge] closure. *)
  let components _ (p : D.Cost.price) extra =
    sums.D.Cost.total <- sums.D.Cost.total +. p.D.Cost.total +. extra;
    sums.D.Cost.mem <- sums.D.Cost.mem +. p.D.Cost.mem;
    sums.D.Cost.accel <- sums.D.Cost.accel +. p.D.Cost.accel
  in
  { lnic; df; pricer; config; states = resolve_states (D.Graph.states df); eswitch_cache;
    upcall_cycles; slots = Array.map slot df.D.Graph.nodes;
    wire = Pricer.wire lnic;
    price = scratch (); miss_price = scratch (); memo = Pricer.sizes_memo pricer;
    sums; components; flow = 0; rng = W.Prng.create ~seed }

let reset_state t =
  Array.iter (fun st -> Option.iter Lru.clear st.seen) t.states;
  Option.iter Lru.clear t.eswitch_cache;
  t.rng <- W.Prng.create ~seed

type per_packet = { cycles : float; emitted : bool }

(* The two-regime off-path charge.  A node's table prices an
   eSwitch-mapped vcall at its fast-path hit cost; this adds what the
   miss regime costs on top: the upcall over the fabric plus the
   software replay of the node on the Arm cores — the price a miss pays
   regardless of where the mapping placed the node.  Accel-hosted
   state is charged at external memory there (the pricer's Γ
   fallback): the slow path walks the full table in DRAM, not the
   cached entries.  The hit/miss decision tracks a per-flow LRU sized
   by the eSwitch SRAM, or blends analytically when
   [flow_cache_hit_ratio] pins the ratio.  Zero on every node
   [miss_regime] leaves out.  Touches the LRU, so [walk] calls it
   exactly once per executed node. *)
let eswitch_node_extra t key = function
  | No_upcall -> 0.
  | Upcall software ->
      let miss =
        match t.config.flow_cache_hit_ratio with
        | Some h -> 1. -. Float.max 0. (Float.min 1. h)
        | None -> (
            match t.eswitch_cache with
            | Some c -> if Lru.touch c t.flow then 0. else 1.
            | None -> 0.)
      in
      if miss = 0. then 0.
      else
        let software =
          match software with
          | Some tbl ->
              Pricer.table_price t.pricer t.memo tbl key t.miss_price;
              t.miss_price.D.Cost.total
          | None -> 0.
        in
        miss *. (t.upcall_cycles +. software)

(* Resolve a guard against the packet and tracked state.  Table-hit
   guards are pure queries; state only becomes "seen" when the walk
   actually executes an insertion (V_table_update) for that table —
   mirroring the NF's real semantics (e.g. a firewall admits state only
   on SYN). *)
let rec resolve_guard t (pkt : W.Packet.t) (g : Ir.guard) =
  match g with
  | Ir.G_proto k -> W.Packet.proto_number pkt.W.Packet.proto = k
  | Ir.G_flag k -> pkt.W.Packet.flags land k <> 0
  | Ir.G_table_hit s -> (
      let st = state t s in
      st.provisioned || match st.seen with None -> false | Some seen -> Lru.mem seen t.flow)
  | Ir.G_scan_match | Ir.G_count_exceeds | Ir.G_opaque -> W.Prng.bool t.rng (guard_prior g)
  | Ir.G_not g' -> not (resolve_guard t pkt g')
  | Ir.G_or (a, b) -> resolve_guard t pkt a || resolve_guard t pkt b

(* The wire legs resolved in [create], when the config charges them. *)
let wire_costs t (pkt : W.Packet.t) ~emitted =
  if t.config.include_wire then
    Pricer.rx_tx_cycles t.wire ~bytes:(float_of_int (W.Packet.total_bytes pkt)) ~emitted
  else 0.

(* The predictor's walk of [pkt] through {!D.Graph.walk}.  Guards
   resolve against the packet and tracked state; every executed node is
   priced from its table at the packet's size key and handed to
   [charge] with its off-path miss extra.  Per node: the price, then
   the eSwitch LRU touch, then [charge], then the emit/insertion
   bookkeeping.  [charge] gets the predictor's scratch price, which the
   next node overwrites.  The packet's flow key goes into [t.flow]
   once, for the guards, the eSwitch LRU and insertions.  The sinks
   below ([packet_latency], [packet_components], [perfetto_timeline])
   differ only in what [charge] keeps.  Returns whether the packet is
   emitted. *)
let walk t (pkt : W.Packet.t) ~charge =
  let key = Pricer.size_key pkt in
  t.flow <- W.Packet.flow_key pkt;
  let emitted = ref false in
  D.Graph.walk t.df ~guard:(resolve_guard t pkt) ~visit:(fun (n : D.Node.t) ->
      let s = t.slots.(n.D.Node.id) in
      Pricer.table_price t.pricer t.memo s.table key t.price;
      let extra = eswitch_node_extra t key s.miss in
      charge n t.price extra;
      match n.D.Node.kind with
      | D.Node.N_vcall v when v.Ir.vc = P.V_emit -> emitted := true
      | D.Node.N_vcall { Ir.vc = P.V_table_update; state = Some s; _ } -> (
          (* Executed insertion: the flow is now table-resident. *)
          match (state t s).seen with
          | Some seen -> ignore (Lru.touch seen t.flow)
          | None -> ())
      | _ -> ());
  !emitted

let packet_latency t (pkt : W.Packet.t) =
  let cost = ref 0. in
  let emitted = walk t pkt ~charge:(fun _ p extra -> cost := !cost +. p.D.Cost.total +. extra) in
  { cycles = !cost +. wire_costs t pkt ~emitted; emitted }

type prediction = {
  mean_cycles : float;
  p50_cycles : float;
  p99_cycles : float;
  tcp_mean : float;
  udp_mean : float;
  syn_mean : float;
  emitted_fraction : float;
}

(* [compare]'s float order as a signed int64 order: NaN lowest, then
   negatives with their magnitude bits flipped, then positives; adding
   0. folds -0. into 0., which [compare] holds equal. *)
let[@inline] key x =
  if Float.is_nan x then Int64.min_int
  else
    let b = Int64.bits_of_float (x +. 0.) in
    if Int64.compare b 0L >= 0 then b else Int64.logxor b Int64.max_int

let of_key k =
  if Int64.equal k Int64.min_int then Float.nan
  else Int64.float_of_bits (if Int64.compare k 0L >= 0 then k else Int64.logxor k Int64.max_int)

(* How many samples of sorted [a] have a key [<= k]. *)
let count_le (a : float array) k =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Int64.compare (key a.(mid)) k <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* The [r]-th smallest (0-indexed) sample of non-empty segments, each
   sorted by [Order_stat.sort_floats]: the least key with more than [r]
   samples at or below it, found by a search over keys (as [Stats] does
   over ints), so no array of all samples is built.  A zero comes back
   as [0.] and a NaN as [Float.nan]. *)
let rank_value segs r =
  let lo = ref Int64.max_int and hi = ref Int64.min_int in
  List.iter
    (fun a ->
      let first = key a.(0) and last = key a.(Array.length a - 1) in
      if Int64.compare first !lo < 0 then lo := first;
      if Int64.compare last !hi > 0 then hi := last)
    segs;
  while Int64.compare !lo !hi < 0 do
    (* The floor of the midpoint, without overflow. *)
    let mid =
      Int64.add
        (Int64.add (Int64.shift_right !lo 1) (Int64.shift_right !hi 1))
        (Int64.logand (Int64.logand !lo !hi) 1L)
    in
    if List.fold_left (fun c a -> c + count_le a mid) 0 segs > r then hi := mid
    else lo := Int64.succ mid
  done;
  of_key !lo

(* Samples are kept in segments of at most [seg_len] floats: a block
   that size still goes to the minor heap, so a prediction's samples
   usually die young there, where one array for a trace's thousand
   samples would be a major-heap block per prediction. *)
let seg_len = 256

let summarize (trace : W.Trace.t) latency =
  let pkts = trace.W.Trace.packets in
  let n = Array.length pkts in
  if n = 0 then
    { mean_cycles = 0.; p50_cycles = 0.; p99_cycles = 0.; tcp_mean = Float.nan;
      udp_mean = Float.nan; syn_mean = Float.nan; emitted_fraction = 0. }
  else begin
    let segs = ref [] and seg = ref [||] in
    let sum = ref 0. in
    let tcp = ref 0. and tcp_n = ref 0 in
    let udp = ref 0. and udp_n = ref 0 in
    let syn = ref 0. and syn_n = ref 0 in
    let emits = ref 0 in
    for i = 0 to n - 1 do
      let pkt = pkts.(i) in
      let r = latency pkt in
      if i mod seg_len = 0 then begin
        seg := Array.create_float (Int.min seg_len (n - i));
        segs := !seg :: !segs
      end;
      !seg.(i mod seg_len) <- r.cycles;
      (* The mean sums in trace order. *)
      sum := !sum +. r.cycles;
      if r.emitted then incr emits;
      (match pkt.W.Packet.proto with
      | W.Packet.Tcp ->
          tcp := !tcp +. r.cycles;
          incr tcp_n
      | W.Packet.Udp ->
          udp := !udp +. r.cycles;
          incr udp_n
      | W.Packet.Other _ -> ());
      if W.Packet.is_syn pkt then begin
        syn := !syn +. r.cycles;
        incr syn_n
      end
    done;
    List.iter (fun a -> Order_stat.sort_floats a (Array.length a)) !segs;
    let pct p = rank_value !segs (Order_stat.rank_index ~n p) in
    let div_or_nan s k = if k = 0 then Float.nan else s /. float_of_int k in
    {
      mean_cycles = !sum /. float_of_int n;
      p50_cycles = pct 0.5;
      p99_cycles = pct 0.99;
      tcp_mean = div_or_nan !tcp !tcp_n;
      udp_mean = div_or_nan !udp !udp_n;
      syn_mean = div_or_nan !syn !syn_n;
      emitted_fraction = float_of_int !emits /. float_of_int n;
    }
  end

let predict_trace t trace =
  reset_state t;
  summarize trace (packet_latency t)

let pp_opt_mean fmt v =
  if Float.is_nan v then Format.pp_print_string fmt "n/a"
  else Format.fprintf fmt "%.0f" v

let pp_prediction fmt p =
  Format.fprintf fmt
    "mean %.0f cyc, p50 %.0f, p99 %.0f, tcp %a, udp %a, syn %a, emit %.0f%%"
    p.mean_cycles p.p50_cycles p.p99_cycles pp_opt_mean p.tcp_mean pp_opt_mean p.udp_mean
    pp_opt_mean p.syn_mean
    (100. *. p.emitted_fraction)

(* ------------------------------------------------------------------ *)
(* Latency attribution (where does the predicted latency go?)          *)

type pkt_components = {
  pc_total : float;    (** Equals {!packet_latency}'s cycles exactly. *)
  pc_compute : float;
  pc_mem : float;
  pc_accel : float;
  pc_wire : float;
  pc_emitted : bool;
}

(* The components sink: [walk] with [t.components] as [charge], from
   zeroed [t.sums].  Returns whether the packet is emitted. *)
let component_walk t pkt =
  t.sums.D.Cost.total <- 0.;
  t.sums.D.Cost.mem <- 0.;
  t.sums.D.Cost.accel <- 0.;
  walk t pkt ~charge:t.components

(* Compute is the residual of the node total after memory and
   accelerator charges, so the four components sum to [pc_total]
   exactly.  The miss-regime extra is charged as compute: it lands in
   the residual. *)
let packet_components t (pkt : W.Packet.t) =
  let emitted = component_walk t pkt in
  let s = t.sums in
  let wire = wire_costs t pkt ~emitted in
  {
    pc_total = s.D.Cost.total +. wire;
    pc_compute = s.D.Cost.total -. s.D.Cost.mem -. s.D.Cost.accel;
    pc_mem = s.D.Cost.mem;
    pc_accel = s.D.Cost.accel;
    pc_wire = wire;
    pc_emitted = emitted;
  }

type att_row = {
  at_type : string;   (** "tcp-syn", "tcp", "udp", "other" or "all". *)
  at_count : int;
  at_compute : float;
  at_mem : float;
  at_accel : float;
  at_wire : float;
  at_total : float;
  at_dominant : string;
}

type attribution = { att_rows : att_row list; att_mean : float }

(* A packet's type as a slot of [type_names]; the last slot is "all". *)
let type_names = [| "tcp-syn"; "tcp"; "udp"; "other"; "all" |]
let all_slot = 4

let type_slot (pkt : W.Packet.t) =
  match pkt.W.Packet.proto with
  | W.Packet.Tcp -> if W.Packet.is_syn pkt then 0 else 1
  | W.Packet.Udp -> 2
  | W.Packet.Other _ -> 3

(* The rows' order: the types by name, then "all". *)
let row_order = [ 3; 1; 0; 2; all_slot ]

let attribute_trace t (trace : W.Trace.t) =
  reset_state t;
  let pkts = trace.W.Trace.packets in
  let n = Array.length pkts in
  if n = 0 then { att_rows = []; att_mean = 0. }
  else begin
    (* Per slot: a count, and compute, mem, accel and wire sums at
       [4 * slot]; the trace's total sits after them. *)
    let counts = Array.make (Array.length type_names) 0 in
    let sums = Array.make ((4 * Array.length type_names) + 1) 0. in
    let total = 4 * Array.length type_names in
    let add slot compute wire =
      let j = 4 * slot in
      counts.(slot) <- counts.(slot) + 1;
      sums.(j) <- sums.(j) +. compute;
      sums.(j + 1) <- sums.(j + 1) +. t.sums.D.Cost.mem;
      sums.(j + 2) <- sums.(j + 2) +. t.sums.D.Cost.accel;
      sums.(j + 3) <- sums.(j + 3) +. wire
    in
    for i = 0 to n - 1 do
      let pkt = pkts.(i) in
      let emitted = component_walk t pkt in
      let s = t.sums in
      let wire = wire_costs t pkt ~emitted in
      (* The mean sums in trace order, as [summarize]'s does. *)
      sums.(total) <- sums.(total) +. (s.D.Cost.total +. wire);
      let compute = s.D.Cost.total -. s.D.Cost.mem -. s.D.Cost.accel in
      add (type_slot pkt) compute wire;
      add all_slot compute wire
    done;
    let row slot =
      let j = 4 * slot in
      let fn = float_of_int counts.(slot) in
      let compute = sums.(j) /. fn and mem = sums.(j + 1) /. fn in
      let accel = sums.(j + 2) /. fn and wire = sums.(j + 3) /. fn in
      let dominant =
        fst
          (List.fold_left
             (fun (bn, bv) (nm, v) -> if v > bv then (nm, v) else (bn, bv))
             ("compute", compute)
             [ ("memory", mem); ("accel", accel); ("wire", wire) ])
      in
      {
        at_type = type_names.(slot);
        at_count = counts.(slot);
        at_compute = compute;
        at_mem = mem;
        at_accel = accel;
        at_wire = wire;
        at_total = compute +. mem +. accel +. wire;
        at_dominant = dominant;
      }
    in
    { att_rows = List.filter_map (fun s -> if counts.(s) = 0 then None else Some (row s)) row_order;
      att_mean = sums.(total) /. float_of_int n }
  end

let pp_attribution fmt a =
  Format.fprintf fmt "@[<v>%-8s %7s %9s %9s %9s %9s %9s  %s@," "type" "pkts" "compute"
    "mem" "accel" "wire" "total" "verdict";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-8s %7d %9.1f %9.1f %9.1f %9.1f %9.1f  %s@," r.at_type
        r.at_count r.at_compute r.at_mem r.at_accel r.at_wire r.at_total r.at_dominant)
    a.att_rows;
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Predicted per-packet timeline as Chrome/Perfetto trace-event JSON.
   The predictor runs no engine, so this is the analytic timeline: the
   packets laid end-to-end on one synthetic track, each with wire-rx,
   per-node and wire-tx spans.  Useful to eyeball where a prediction
   says the cycles go; load at ui.perfetto.dev like a [clara trace]. *)

let node_name (n : D.Node.t) =
  match n.D.Node.kind with
  | D.Node.N_vcall v -> P.vcall_name v.Ir.vc
  | D.Node.N_compute _ -> "compute"

let perfetto_timeline t (trace : W.Trace.t) =
  let module J = Clara_util.Json in
  reset_state t;
  let freq_mhz = L.Graph.freq_mhz t.lnic in
  let us cycles = cycles /. float_of_int freq_mhz in
  let out = ref [] in
  let clock = ref 0. in
  let span name dur ~seq =
    if dur > 0. then
      out :=
        J.Obj
          [
            ("name", J.String name);
            ("ph", J.String "X");
            ("ts", J.Float (us !clock));
            ("dur", J.Float (us dur));
            ("pid", J.Int 1);
            ("tid", J.Int 0);
            ("args", J.Obj [ ("seq", J.Int seq) ]);
          ]
        :: !out;
    clock := !clock +. dur
  in
  Array.iteri
    (fun seq pkt ->
      (* Wire-rx first with the packet's ingress share, then one span per
         charged node, wire-tx last. *)
      let bytes = float_of_int (W.Packet.total_bytes pkt) in
      if t.config.include_wire then span "wire-rx" (Pricer.rx_cycles t.wire ~bytes) ~seq;
      let emitted =
        walk t pkt ~charge:(fun n p extra -> span (node_name n) (p.D.Cost.total +. extra) ~seq)
      in
      if t.config.include_wire && emitted then span "wire-tx" (Pricer.tx_cycles t.wire ~bytes) ~seq)
    trace.W.Trace.packets;
  J.Obj
    [
      ( "traceEvents",
        J.List
          (J.Obj
             [
               ("name", J.String "process_name");
               ("ph", J.String "M");
               ("pid", J.Int 1);
               ("args", J.Obj [ ("name", J.String "clara predict (analytic)") ]);
             ]
          :: List.rev !out) );
      ("displayTimeUnit", J.String "ns");
      ( "otherData",
        J.Obj [ ("tool", J.String "clara predict --trace"); ("freq_mhz", J.Int freq_mhz) ]
      );
    ]
