module Ir = Clara_cir.Ir
module L = Clara_lnic
module P = Clara_lnic.Params

type sizes = {
  payload_bytes : float;
  packet_bytes : float;
  header_bytes : float;
  state_entries : string -> float;
  opaque_trip : float;
}

let rec eval_size sizes = function
  | Ir.S_const n -> float_of_int n
  | Ir.S_payload -> sizes.payload_bytes
  | Ir.S_packet -> sizes.packet_bytes
  | Ir.S_header -> sizes.header_bytes
  | Ir.S_state_entries s -> sizes.state_entries s
  | Ir.S_scaled (e, k) -> Float.max 0. (k *. eval_size sizes e)
  | Ir.S_plus (e, k) -> Float.max 0. (eval_size sizes e +. float_of_int k)
  | Ir.S_opaque -> sizes.opaque_trip

type mode = [ `Read | `Write | `Atomic ]

type term =
  | T_op of float
  | T_access of { op : float; mode : mode; loc : Ir.loc }
  | T_core_vcall of { fn : L.Cost_fn.t; v : Ir.vcall_info }
  | T_accel_vcall of { fn : L.Cost_fn.t; v : Ir.vcall_info }

let term params (u : L.Unit_.t) (i : Ir.instr) =
  match u.L.Unit_.kind with
  | L.Unit_.Accelerator kind -> (
      match i with
      | Ir.Vcall v ->
          Option.map (fun fn -> T_accel_vcall { fn; v }) (P.accel_vcall_cost params kind v.Ir.vc)
      | _ -> None)
  | L.Unit_.General_core { has_fpu; _ } -> (
      let access op mode loc = Some (T_access { op = P.op_cost params op ~has_fpu; mode; loc }) in
      match i with
      | Ir.Vcall v ->
          Option.map (fun fn -> T_core_vcall { fn; v }) (P.core_vcall_cost params v.Ir.vc)
      | Ir.Op cls -> Some (T_op (P.op_cost params cls ~has_fpu))
      | Ir.Load loc -> access P.Load `Read loc
      | Ir.Store loc -> access P.Store `Write loc
      | Ir.Atomic_op loc -> access P.Atomic `Atomic loc)

let instrs (n : Node.t) =
  match n.Node.kind with Node.N_vcall v -> [ Ir.Vcall v ] | Node.N_compute is -> is

let node_terms params u n =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | i :: rest -> (
        match term params u i with None -> None | Some t -> go (t :: acc) rest)
  in
  go [] (instrs n)

let wire lnic dir =
  let params = lnic.L.Graph.params in
  let fn, hub =
    match dir with
    | `Rx -> (params.P.wire_ingress, `Ingress)
    | `Tx -> (params.P.wire_egress, `Egress)
  in
  (fn, match L.Graph.hub lnic hub with Some h -> float_of_int h.L.Hub.per_packet_cycles | None -> 0.)

(* Packet data lives in cluster memory (the CTM) while the packet fits
   the threshold and spills to external memory beyond it (§3.2); the
   mapping layer picks the two regions per unit. *)
type 'r packet_regions = { fits : 'r; spills : 'r; ctm_threshold : int }

let packet_region r ~packet_bytes =
  if int_of_float packet_bytes <= r.ctm_threshold then r.fits else r.spills

type site = {
  lnic : L.Graph.t;
  exec_unit : L.Unit_.t;
  state_region : string -> int;
  state_footprint : string -> int;
  entries : string -> float;
  packet_regions : int packet_regions;
}

type ctx = {
  lnic : L.Graph.t;
  exec_unit : L.Unit_.t;
  state_region : string -> int;
  state_footprint : string -> int;
  packet_region : int;
  sizes : sizes;
}

(* Caches are shared (packet spill, other flows), so even a footprint that
   fits is not always resident: the effective latency mixes hit and miss
   with a locality-discounted hit ratio.  The discount keeps Γ honest:
   with a full-hit assumption the EMEM's 3 MB cache (150 cyc) would
   always beat the IMEM (250 cyc); with the discount, random-access
   state (hash tables) still prefers the IMEM while scan-style walks
   (whose reuse is near-perfect) are only mildly over-charged — the
   residual is visible as Figure 3a's ~10% overprediction. *)
let cache_locality = ref 0.85

(* One region as the executing unit sees it: every part of an access
   but the cache fit of its footprint.  [cache_bytes] is negative when
   the access bypasses a cache (none fronts the region, or an atomic).
   All fields are floats, so the record is flat. *)
type region = { flat : float; hit : float; cache_bytes : float; locality : float; weight : float }

let region (s : site) ~mode ~mem_id =
  match L.Graph.access_weight s.lnic ~unit_id:s.exec_unit.L.Unit_.id ~mem_id with
  | None -> None
  | Some weight ->
      let m = L.Graph.memory s.lnic mem_id in
      let hit, cache_bytes =
        match (m.L.Memory.cache, mode) with
        | Some c, (`Read | `Write) ->
            (float_of_int c.L.Memory.hit_cycles, float_of_int c.L.Memory.cache_bytes)
        | _ -> (0., -1.)
      in
      Some
        { flat = float_of_int (L.Memory.cycles m mode); hit; cache_bytes;
          locality = !cache_locality; weight = float_of_int weight }

let access_cycles r ~footprint =
  let base =
    if r.cache_bytes < 0. then r.flat
    else
      let fit =
        if footprint <= 0 then 1. else Float.min 1. (r.cache_bytes /. float_of_int footprint)
      in
      let h = r.locality *. fit in
      (h *. r.hit) +. ((1. -. h) *. r.flat)
  in
  base +. r.weight

type price = { mutable total : float; mutable mem : float; mutable accel : float }

(* A term as resolved on one site.  Whatever does not depend on the
   packet is folded into [C_fixed] at resolve time; the rest keeps what
   {!charge} needs to finish it from a packet's sizes. *)
type charge =
  | C_fixed of price
  | C_packet of { op : float; regions : region packet_regions }
  | C_accel_vcall of { fn : L.Cost_fn.t; size : Ir.size_expr }
  | C_core_vcall of { fn : L.Cost_fn.t; v : Ir.vcall_info; state : (float * float) option }
      (* [state]: the read and write cycles of the state it touches. *)

type trip = Trip_fixed of float | Trip_sized of Ir.size_expr

type resolved = { charges : charge list; trip : trip }

let add_access p ~op m =
  p.total <- p.total +. (m +. op);
  p.mem <- p.mem +. m

(* Adds one charge in place.  Each [total] increment is the term's own
   total, summed in the order mapping objectives and predictions depend
   on (float rounding). *)
let charge sizes p = function
  | C_fixed c ->
      p.total <- p.total +. c.total;
      p.mem <- p.mem +. c.mem;
      p.accel <- p.accel +. c.accel
  | C_packet { op; regions } ->
      let r = packet_region regions ~packet_bytes:sizes.packet_bytes in
      add_access p ~op (access_cycles r ~footprint:(int_of_float sizes.packet_bytes))
  | C_accel_vcall { fn; size } ->
      (* Accelerators keep their operands in dedicated SRAM (e.g. the
         flow cache); no extra per-access memory charge. *)
      let c = L.Cost_fn.eval fn (eval_size sizes size) in
      p.total <- p.total +. c;
      p.accel <- p.accel +. c
  | C_core_vcall { fn; v; state } -> (
      let base = L.Cost_fn.eval fn (eval_size sizes v.Ir.size) in
      match state with
      | None -> p.total <- p.total +. base
      | Some (rc, wc) ->
          let reads = eval_size sizes v.Ir.state_reads in
          let writes = eval_size sizes v.Ir.state_writes in
          p.total <- p.total +. (base +. (reads *. rc) +. (writes *. wc));
          p.mem <- p.mem +. ((reads *. rc) +. (writes *. wc)))

(* Whether a size needs nothing from the packet: no packet field and no
   opaque trip. *)
let rec packet_free = function
  | Ir.S_const _ | Ir.S_state_entries _ -> true
  | Ir.S_payload | Ir.S_packet | Ir.S_header | Ir.S_opaque -> false
  | Ir.S_scaled (e, _) | Ir.S_plus (e, _) -> packet_free e

let zero () = { total = 0.; mem = 0.; accel = 0. }

let resolve (s : site) (n : Node.t) =
  (* Sizes for folding packet-free terms: only [state_entries] is read. *)
  let entries_only =
    { payload_bytes = Float.nan; packet_bytes = Float.nan; header_bytes = Float.nan;
      state_entries = s.entries; opaque_trip = Float.nan }
  in
  let fixed c =
    if
      match c with
      | C_fixed _ | C_packet _ -> false
      | C_accel_vcall { size; _ } -> packet_free size
      | C_core_vcall { v; state; _ } ->
          packet_free v.Ir.size
          && (state = None || (packet_free v.Ir.state_reads && packet_free v.Ir.state_writes))
    then begin
      let p = zero () in
      charge entries_only p c;
      C_fixed p
    end
    else c
  in
  let access_at ~mode ~mem_id ~footprint =
    Option.map (fun r -> access_cycles r ~footprint) (region s ~mode ~mem_id)
  in
  let state_access ~mode st =
    access_at ~mode ~mem_id:(s.state_region st) ~footprint:(s.state_footprint st)
  in
  let fixed_access ~op m =
    let p = zero () in
    add_access p ~op m;
    C_fixed p
  in
  let of_term = function
    | T_op c -> Some (C_fixed { total = c; mem = 0.; accel = 0. })
    | T_access { op; mode; loc = Ir.L_local } ->
        Option.bind (L.Graph.local_region s.lnic ~unit_id:s.exec_unit.L.Unit_.id)
          (fun mem_id -> Option.map (fixed_access ~op) (access_at ~mode ~mem_id ~footprint:0))
    | T_access { op; mode; loc = Ir.L_state st } ->
        Option.map (fixed_access ~op) (state_access ~mode st)
    | T_access { op; mode; loc = Ir.L_packet } -> (
        let pr = s.packet_regions in
        match (region s ~mode ~mem_id:pr.fits, region s ~mode ~mem_id:pr.spills) with
        | Some fits, Some spills ->
            Some (C_packet { op; regions = { fits; spills; ctm_threshold = pr.ctm_threshold } })
        | _ -> None)
    | T_accel_vcall { fn; v } -> Some (fixed (C_accel_vcall { fn; size = v.Ir.size }))
    | T_core_vcall { fn; v } -> (
        match v.Ir.state with
        | None -> Some (fixed (C_core_vcall { fn; v; state = None }))
        | Some st -> (
            match (state_access ~mode:`Read st, state_access ~mode:`Write st) with
            | Some rc, Some wc -> Some (fixed (C_core_vcall { fn; v; state = Some (rc, wc) }))
            | _ -> None))
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | t :: rest -> ( match of_term t with None -> None | Some c -> go (c :: acc) rest)
  in
  match node_terms s.lnic.L.Graph.params s.exec_unit n with
  | None -> None
  | Some terms ->
      Option.map
        (fun charges ->
          let trip =
            match n.Node.loop_trip with
            | None -> Trip_fixed 1.
            | Some t when packet_free t -> Trip_fixed (Float.max 1. (eval_size entries_only t))
            | Some t -> Trip_sized t
          in
          { charges; trip })
        (go [] terms)

let rec charge_all sizes p = function
  | [] -> ()
  | c :: rest ->
      charge sizes p c;
      charge_all sizes p rest

let evaluate r sizes p =
  p.total <- 0.;
  p.mem <- 0.;
  p.accel <- 0.;
  charge_all sizes p r.charges;
  let trip =
    match r.trip with Trip_fixed t -> t | Trip_sized t -> Float.max 1. (eval_size sizes t)
  in
  p.total <- p.total *. trip;
  p.mem <- trip *. p.mem;
  p.accel <- trip *. p.accel

let price r sizes =
  let p = zero () in
  evaluate r sizes p;
  p

let size_free_price r =
  match r.trip with
  | Trip_fixed _ when List.for_all (function C_fixed _ -> true | _ -> false) r.charges ->
      (* Fixed charges and trip read no size, so any sizes do. *)
      let no_sizes =
        { payload_bytes = Float.nan; packet_bytes = Float.nan; header_bytes = Float.nan;
          state_entries = (fun _ -> Float.nan); opaque_trip = Float.nan }
      in
      Some (price r no_sizes)
  | _ -> None

let site_of_ctx (c : ctx) =
  { lnic = c.lnic; exec_unit = c.exec_unit; state_region = c.state_region;
    state_footprint = c.state_footprint; entries = c.sizes.state_entries;
    packet_regions = { fits = c.packet_region; spills = c.packet_region; ctm_threshold = max_int } }

let node_price ctx n = Option.map (fun r -> price r ctx.sizes) (resolve (site_of_ctx ctx) n)

let node_cycles ctx n = Option.map (fun p -> p.total) (node_price ctx n)
