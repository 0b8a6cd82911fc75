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

type t = {
  lnic : L.Graph.t;
  df : D.Graph.t;
  pricer : Pricer.t;
  config : config;
  (* Abstract state: which keys each table has seen (bounded). *)
  flow_seen : (string, Lru.t) Hashtbl.t;
  (* LPM/route tables are provisioned configuration, not learned state:
     matches against them succeed. *)
  provisioned : (string, unit) Hashtbl.t;
  (* Off-path only: the eSwitch flow cache, sized by its SRAM.  A vcall
     on cached flows runs at the hardware hit price; a miss pays the
     upcall plus the software cost of the same node (two-regime). *)
  eswitch_cache : Lru.t option;
  upcall_cycles : float;
  mutable rng : W.Prng.t;
}

let create ?(config = default_config) lnic df mapping =
  let flow_seen = Hashtbl.create 8 in
  let provisioned = Hashtbl.create 4 in
  List.iter
    (fun (s : Ir.state_obj) ->
      Hashtbl.replace flow_seen s.Ir.st_name
        (Lru.create ~capacity:(max 1 s.Ir.st_entries));
      if s.Ir.st_kind = Clara_cir.Ast.S_lpm then
        Hashtbl.replace provisioned s.Ir.st_name ())
    (D.Graph.states df);
  let eswitch_cache =
    if lnic.L.Graph.arch = L.Graph.Off_path
       && L.Graph.find_accelerator lnic L.Unit_.Eswitch <> None
    then
      let sram = P.accel_sram lnic.L.Graph.params L.Unit_.Eswitch in
      (* ~32 B per match-action entry, as in the simulator's flow cache. *)
      if sram > 0 then Some (Lru.create ~capacity:(max 1 (sram / 32))) else None
    else None
  in
  { lnic; df; pricer = Pricer.create ~mapping lnic df; config; flow_seen; provisioned;
    eswitch_cache;
    upcall_cycles = float_of_int (L.Graph.upcall_cycles lnic);
    rng = W.Prng.create ~seed }

let reset_state t =
  Hashtbl.iter (fun _ l -> Lru.clear l) t.flow_seen;
  Option.iter Lru.clear t.eswitch_cache;
  t.rng <- W.Prng.create ~seed

type per_packet = { cycles : float; emitted : bool }

let node_price t sizes (n : D.Node.t) =
  match Pricer.price t.pricer sizes n with
  | Some p -> p
  | None ->
      (* The mapping guaranteed executability; a None here is a bug. *)
      failwith
        (Printf.sprintf "Latency: node n%d unexecutable on its mapped unit" n.D.Node.id)

(* What [n] would cost run in software on a general core — the price a
   flow-cache miss pays after the upcall, regardless of where the mapping
   placed the node.  Accel-hosted state is charged at external memory
   here (the pricer's Γ fallback): the slow path walks the full table in
   DRAM, not the cached entries. *)
let software_node_cost t sizes (n : D.Node.t) =
  match L.Graph.general_cores t.lnic with
  | [] -> 0.
  | core :: _ -> (
      match Pricer.price_on t.pricer core sizes n with
      | Some p -> p.D.Cost.total
      | None -> 0.)

(* The two-regime off-path charge.  [node_price] prices an
   eSwitch-mapped vcall at its fast-path hit cost; this adds what the
   miss regime costs on top: the upcall over the fabric plus the
   software replay of the node on the Arm cores.  The hit/miss decision
   tracks a per-flow LRU sized by the eSwitch SRAM, or blends
   analytically when [flow_cache_hit_ratio] pins the ratio.  Zero on
   every on-path target ([Graph.upcall_cycles] is 0 there), and only
   stateful vcalls blend — the flow cache caches flows, so stateless
   eSwitch work (parsing, header rewrites) is hit-priced pipeline
   hardware.  Touches the LRU, so [walk] calls it exactly once per
   executed node. *)
let eswitch_node_extra t (pkt : W.Packet.t) sizes (n : D.Node.t) =
  if t.upcall_cycles = 0. then 0.
  else
    match ((Pricer.mapped_unit t.pricer n).L.Unit_.kind, n.D.Node.kind) with
    | L.Unit_.Accelerator L.Unit_.Eswitch, D.Node.N_vcall v
      when v.Ir.state <> None ->
        let miss =
          match t.config.flow_cache_hit_ratio with
          | Some h -> 1. -. Float.max 0. (Float.min 1. h)
          | None -> (
              match t.eswitch_cache with
              | Some c -> if Lru.touch c (W.Packet.flow_key pkt) then 0. else 1.
              | None -> 0.)
        in
        if miss = 0. then 0.
        else miss *. (t.upcall_cycles +. software_node_cost t sizes n)
    | _ -> 0.

(* Resolve a guard against the packet and tracked state.  Table-hit
   guards are pure queries; state only becomes "seen" when the walk
   actually executes an insertion (V_table_update) for that table —
   mirroring the NF's real semantics (e.g. a firewall admits state only
   on SYN). *)
let rec resolve_guard t (pkt : W.Packet.t) (g : Ir.guard) =
  match g with
  | Ir.G_proto k -> W.Packet.proto_number pkt.W.Packet.proto = k
  | Ir.G_flag k -> pkt.W.Packet.flags land k <> 0
  | Ir.G_table_hit s ->
      Hashtbl.mem t.provisioned s
      || (match Hashtbl.find_opt t.flow_seen s with
         | None -> false
         | Some seen -> Lru.mem seen (W.Packet.flow_key pkt))
  | Ir.G_scan_match | Ir.G_count_exceeds | Ir.G_opaque -> W.Prng.bool t.rng (guard_prior g)
  | Ir.G_not g' -> not (resolve_guard t pkt g')
  | Ir.G_or (a, b) -> resolve_guard t pkt a || resolve_guard t pkt b

let wire_cycles lnic (pkt : W.Packet.t) ~emitted =
  Pricer.wire_cycles lnic ~bytes:(float_of_int (W.Packet.total_bytes pkt)) ~emitted

let wire_costs t pkt ~emitted =
  if t.config.include_wire then wire_cycles t.lnic pkt ~emitted else 0.

(* The predictor's walk of [pkt] through {!D.Graph.walk}.  Guards
   resolve against the packet and tracked state; every executed node is
   priced on its mapped unit and handed to [charge] with its off-path
   miss extra.  Per node: the price, then the eSwitch LRU touch, then
   [charge], then the emit/insertion bookkeeping.  The sinks below
   ([packet_latency], [packet_components], [perfetto_timeline]) differ
   only in what [charge] keeps.  Returns whether the packet is emitted. *)
let walk t (pkt : W.Packet.t) ~charge =
  let sizes = Pricer.packet_sizes t.pricer pkt in
  let emitted = ref false in
  D.Graph.walk t.df ~guard:(resolve_guard t pkt) ~visit:(fun (n : D.Node.t) ->
      let price = node_price t sizes n in
      let extra = eswitch_node_extra t pkt sizes n in
      charge n price extra;
      match n.D.Node.kind with
      | D.Node.N_vcall v when v.Ir.vc = P.V_emit -> emitted := true
      | D.Node.N_vcall { Ir.vc = P.V_table_update; state = Some s; _ } -> (
          (* Executed insertion: the flow is now table-resident. *)
          match Hashtbl.find_opt t.flow_seen s with
          | Some seen -> ignore (Lru.touch seen (W.Packet.flow_key pkt))
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

let summarize (trace : W.Trace.t) latency =
  let n = Array.length trace.W.Trace.packets in
  if n = 0 then
    { mean_cycles = 0.; p50_cycles = 0.; p99_cycles = 0.; tcp_mean = Float.nan;
      udp_mean = Float.nan; syn_mean = Float.nan; emitted_fraction = 0. }
  else begin
    let lats = Array.make n 0. in
    let tcp = ref 0. and tcp_n = ref 0 in
    let udp = ref 0. and udp_n = ref 0 in
    let syn = ref 0. and syn_n = ref 0 in
    let emits = ref 0 in
    Array.iteri
      (fun i pkt ->
        let r = latency pkt in
        lats.(i) <- r.cycles;
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
        end)
      trace.W.Trace.packets;
    (* The mean sums in trace order, before the samples sort in place. *)
    let mean_cycles = Array.fold_left ( +. ) 0. lats /. float_of_int n in
    Order_stat.sort_floats lats n;
    let pct p = lats.(Order_stat.rank_index ~n p) in
    let div_or_nan s k = if k = 0 then Float.nan else s /. float_of_int k in
    {
      mean_cycles;
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

(* Compute is the residual of the node total after memory and
   accelerator charges, so the four components sum to [pc_total]
   exactly.  The miss-regime extra is charged as compute: it lands in
   the residual. *)
let packet_components t (pkt : W.Packet.t) =
  let cost = ref 0. and mem = ref 0. and accel = ref 0. in
  let emitted =
    walk t pkt ~charge:(fun _ p extra ->
        cost := !cost +. p.D.Cost.total +. extra;
        mem := !mem +. p.D.Cost.mem;
        accel := !accel +. p.D.Cost.accel)
  in
  let wire = wire_costs t pkt ~emitted in
  {
    pc_total = !cost +. wire;
    pc_compute = !cost -. !mem -. !accel;
    pc_mem = !mem;
    pc_accel = !accel;
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

let type_label (pkt : W.Packet.t) =
  match pkt.W.Packet.proto with
  | W.Packet.Tcp -> if W.Packet.is_syn pkt then "tcp-syn" else "tcp"
  | W.Packet.Udp -> "udp"
  | W.Packet.Other _ -> "other"

let attribute_trace t (trace : W.Trace.t) =
  reset_state t;
  let n = Array.length trace.W.Trace.packets in
  if n = 0 then { att_rows = []; att_mean = 0. }
  else begin
    let lats = Array.make n 0. in
    let sums : (string, int ref * float ref * float ref * float ref * float ref) Hashtbl.t =
      Hashtbl.create 8
    in
    let add ty c =
      let cnt, co, me, ac, wi =
        match Hashtbl.find_opt sums ty with
        | Some v -> v
        | None ->
            let v = (ref 0, ref 0., ref 0., ref 0., ref 0.) in
            Hashtbl.add sums ty v;
            v
      in
      incr cnt;
      co := !co +. c.pc_compute;
      me := !me +. c.pc_mem;
      ac := !ac +. c.pc_accel;
      wi := !wi +. c.pc_wire
    in
    Array.iteri
      (fun i pkt ->
        let c = packet_components t pkt in
        lats.(i) <- c.pc_total;
        add (type_label pkt) c;
        add "all" c)
      trace.W.Trace.packets;
    let rows =
      Hashtbl.fold
        (fun ty (cnt, co, me, ac, wi) acc ->
          let fn = float_of_int !cnt in
          let compute = !co /. fn and mem = !me /. fn in
          let accel = !ac /. fn and wire = !wi /. fn in
          let dominant =
            fst
              (List.fold_left
                 (fun (bn, bv) (nm, v) -> if v > bv then (nm, v) else (bn, bv))
                 ("compute", compute)
                 [ ("memory", mem); ("accel", accel); ("wire", wire) ])
          in
          {
            at_type = ty;
            at_count = !cnt;
            at_compute = compute;
            at_mem = mem;
            at_accel = accel;
            at_wire = wire;
            at_total = compute +. mem +. accel +. wire;
            at_dominant = dominant;
          }
          :: acc)
        sums []
      |> List.sort (fun a b ->
             match (a.at_type = "all", b.at_type = "all") with
             | true, false -> 1
             | false, true -> -1
             | _ -> compare a.at_type b.at_type)
    in
    { att_rows = rows; att_mean = Array.fold_left ( +. ) 0. lats /. float_of_int n }
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
      let rx, tx = Pricer.wire_legs t.lnic ~bytes:(float_of_int (W.Packet.total_bytes pkt)) in
      if t.config.include_wire then span "wire-rx" rx ~seq;
      let emitted =
        walk t pkt ~charge:(fun n p extra -> span (node_name n) (p.D.Cost.total +. extra) ~seq)
      in
      if t.config.include_wire && emitted then span "wire-tx" tx ~seq)
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
