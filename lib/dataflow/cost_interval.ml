(* Interval lifting of {!Cost}: every scalar price becomes a closed
   range [rlo, rhi] covering the price under any admissible execution —
   any candidate execution unit, any candidate memory region, cache hit
   or miss, any packet size in the workload envelope, and (for stateful
   vcalls) the flow-cache hit regime on the fast end and the
   miss/upcall/table-walk regime on the slow end.

   The module deliberately does not depend on the mapping: Bounds runs
   before (and independently of) ILP placement, so a node's range is
   the envelope over every unit that could execute it.  The ranges use
   a plain float pair rather than {!Clara_analysis.Interval} to keep
   the dependency arrow analysis -> dataflow one-way. *)

module Ir = Clara_cir.Ir
module L = Clara_lnic
module P = Clara_lnic.Params

type r = { rlo : float; rhi : float }

let rconst v = { rlo = v; rhi = v }
let rzero = rconst 0.
let radd a b = { rlo = a.rlo +. b.rlo; rhi = a.rhi +. b.rhi }
let rjoin a b = { rlo = Float.min a.rlo b.rlo; rhi = Float.max a.rhi b.rhi }

(* Ranges here are non-negative, so products only need the endpoint
   pairing — with 0 * inf = 0 (a zero-trip loop body costs nothing even
   when its per-iteration price is unbounded). *)
let mulf a b = if a = 0. || b = 0. then 0. else a *. b
let rmul a b = { rlo = mulf a.rlo b.rlo; rhi = mulf a.rhi b.rhi }
let rclamp0 a = { rlo = Float.max 0. a.rlo; rhi = Float.max 0. a.rhi }
let rfinite a = Float.is_finite a.rlo && Float.is_finite a.rhi

type sizes = {
  payload_bytes : r;
  packet_bytes : r;
  header_bytes : r;
  state_entries : string -> r;
  opaque_trip : r;  (* typically [1, inf): no derivable bound *)
}

let rec eval_size sizes = function
  | Ir.S_const n -> rconst (float_of_int n)
  | Ir.S_payload -> sizes.payload_bytes
  | Ir.S_packet -> sizes.packet_bytes
  | Ir.S_header -> sizes.header_bytes
  | Ir.S_state_entries s -> sizes.state_entries s
  | Ir.S_scaled (e, k) ->
      let v = eval_size sizes e in
      rclamp0 (if k >= 0. then rmul (rconst k) v
               else { rlo = k *. v.rhi; rhi = k *. v.rlo })
  | Ir.S_plus (e, k) ->
      rclamp0 (radd (eval_size sizes e) (rconst (float_of_int k)))
  | Ir.S_opaque -> sizes.opaque_trip

(* Cost functions are evaluated over a size range by taking the hull of
   the endpoint evaluations; an infinite upper size yields the
   function's limit (infinite iff it actually grows). *)
let cost_fn_r f (n : r) =
  let lo_v = L.Cost_fn.eval f (Float.max 0. n.rlo) in
  let hi_v =
    if Float.is_finite n.rhi then L.Cost_fn.eval f (Float.max 0. n.rhi)
    else if f.L.Cost_fn.per_unit > 0. || f.L.Cost_fn.log2_coeff > 0. then
      Float.infinity
    else f.L.Cost_fn.base
  in
  rclamp0 { rlo = Float.min lo_v hi_v; rhi = Float.max lo_v hi_v }

type ctx = {
  lnic : L.Graph.t;
  units : L.Unit_.t list;              (* candidate execution units *)
  state_regions : string -> int list;  (* candidate regions per state *)
  packet_regions : int list;           (* candidate packet-data regions *)
  state_footprint : string -> int;
  sizes : sizes;
}

(* The simulator charges a cross-island penalty on remote CTM accesses
   that the per-region prices do not carry; fold the largest access-link
   weight into every access's upper endpoint so the envelope covers it. *)
let island_slack lnic =
  List.fold_left
    (fun acc (l : L.Link.t) ->
      match l.L.Link.kind with
      | L.Link.Access (_, _) -> Float.max acc (float_of_int l.L.Link.weight_cycles)
      | _ -> acc)
    0. lnic.L.Graph.links

(* One access by [u] to region [mem_id]: best case a cache hit, worst
   case the flat (miss) price, both plus the link weight.  No cache-fit
   blending — the blend always lies between the two endpoints. *)
let region_access_r ctx (u : L.Unit_.t) ~mode ~mem_id =
  match L.Graph.access_weight ctx.lnic ~unit_id:u.L.Unit_.id ~mem_id with
  | None -> None
  | Some weight ->
      let m = L.Graph.memory ctx.lnic mem_id in
      let flat = float_of_int (L.Memory.cycles m mode) in
      let best =
        match (m.L.Memory.cache, mode) with
        | Some c, (`Read | `Write) ->
            Float.min (float_of_int c.L.Memory.hit_cycles) flat
        | _ -> flat
      in
      let w = float_of_int weight in
      Some
        { rlo = best +. w; rhi = flat +. w +. island_slack ctx.lnic }

(* Envelope over a candidate region list; [None] if the unit reaches
   none of them. *)
let regions_access_r ctx u ~mode regions =
  List.filter_map (fun mem_id -> region_access_r ctx u ~mode ~mem_id) regions
  |> function
  | [] -> None
  | x :: xs -> Some (List.fold_left rjoin x xs)

let loc_access_r ctx u ~mode (loc : Ir.loc) =
  match loc with
  | Ir.L_local -> (
      match L.Graph.local_region ctx.lnic ~unit_id:u.L.Unit_.id with
      | None -> None
      | Some mem_id -> region_access_r ctx u ~mode ~mem_id)
  | Ir.L_packet -> regions_access_r ctx u ~mode ctx.packet_regions
  | Ir.L_state s -> regions_access_r ctx u ~mode (ctx.state_regions s)

(* Per-axis component ranges, mirroring {!Cost.breakdown}. *)
type breakdown = { i_compute : r; i_mem : r; i_accel : r }

let bzero = { i_compute = rzero; i_mem = rzero; i_accel = rzero }

let badd a b =
  { i_compute = radd a.i_compute b.i_compute;
    i_mem = radd a.i_mem b.i_mem;
    i_accel = radd a.i_accel b.i_accel }

let bjoin a b =
  { i_compute = rjoin a.i_compute b.i_compute;
    i_mem = rjoin a.i_mem b.i_mem;
    i_accel = rjoin a.i_accel b.i_accel }

let bmul_r k b =
  { i_compute = rmul k b.i_compute;
    i_mem = rmul k b.i_mem;
    i_accel = rmul k b.i_accel }

let btotal b = radd b.i_compute (radd b.i_mem b.i_accel)

(* The slow-regime price of a stateful vcall: replayed on a general
   core with the state walked out of its worst candidate region.  The
   read count is floored at one cache line per 64 state bytes — a flow
   cache miss (or an LPM walk) traverses the backing table, not just
   the [state_reads] the fast path declares. *)
let software_replay_hi ctx (v : Ir.vcall_info) =
  let params = ctx.lnic.L.Graph.params in
  match (L.Graph.general_cores ctx.lnic, v.Ir.state) with
  | [], _ | _, None -> 0.
  | core :: _, Some st -> (
      match P.core_vcall_cost params v.Ir.vc with
      | None -> 0.
      | Some f ->
          let n = eval_size ctx.sizes v.Ir.size in
          let base = (cost_fn_r f n).rhi in
          let reads =
            Float.max
              (eval_size ctx.sizes v.Ir.state_reads).rhi
              (float_of_int (ctx.state_footprint st) /. 64.)
          in
          let writes = (eval_size ctx.sizes v.Ir.state_writes).rhi in
          let acc mode =
            match regions_access_r ctx core ~mode (ctx.state_regions st) with
            | Some a -> a.rhi
            | None -> 0.
          in
          base +. mulf reads (acc `Read) +. mulf writes (acc `Write))

let vcall_unit_r ctx (u : L.Unit_.t) (v : Ir.vcall_info) =
  let params = ctx.lnic.L.Graph.params in
  let n = eval_size ctx.sizes v.Ir.size in
  match u.L.Unit_.kind with
  | L.Unit_.Accelerator kind -> (
      match P.accel_vcall_cost params kind v.Ir.vc with
      | None -> None
      | Some f ->
          let hit = cost_fn_r f n in
          if v.Ir.state = None then Some { bzero with i_accel = hit }
          else
            (* Stateful accelerator work has two regimes: the flow-cache
               hit at the hardware price, and the miss paying the upcall
               (off-path targets) plus a software replay over the
               backing table.  The envelope spans both. *)
            let upcall = float_of_int (L.Graph.upcall_cycles ctx.lnic) in
            let miss_extra = upcall +. software_replay_hi ctx v in
            Some
              { bzero with
                i_accel = hit;
                i_compute = { rlo = 0.; rhi = miss_extra } })
  | L.Unit_.General_core _ -> (
      match P.core_vcall_cost params v.Ir.vc with
      | None -> None
      | Some f -> (
          let base = cost_fn_r f n in
          match v.Ir.state with
          | None -> Some { bzero with i_compute = base }
          | Some st -> (
              let reads = eval_size ctx.sizes v.Ir.state_reads in
              let writes = eval_size ctx.sizes v.Ir.state_writes in
              let r = regions_access_r ctx u ~mode:`Read (ctx.state_regions st) in
              let w = regions_access_r ctx u ~mode:`Write (ctx.state_regions st) in
              match (r, w) with
              | Some rc, Some wc ->
                  Some
                    { bzero with
                      i_compute = base;
                      i_mem = radd (rmul reads rc) (rmul writes wc) }
              | _ -> None)))

let instr_unit_r ctx (u : L.Unit_.t) (i : Ir.instr) =
  let params = ctx.lnic.L.Graph.params in
  let core_split op loc ~mode =
    match u.L.Unit_.kind with
    | L.Unit_.Accelerator _ -> None
    | L.Unit_.General_core { has_fpu; _ } ->
        Option.map
          (fun m ->
            { bzero with
              i_compute = rconst (P.op_cost params op ~has_fpu);
              i_mem = m })
          (loc_access_r ctx u ~mode loc)
  in
  match i with
  | Ir.Vcall v -> vcall_unit_r ctx u v
  | Ir.Op cls -> (
      match u.L.Unit_.kind with
      | L.Unit_.Accelerator _ -> None
      | L.Unit_.General_core { has_fpu; _ } ->
          Some { bzero with i_compute = rconst (P.op_cost params cls ~has_fpu) })
  | Ir.Load loc -> core_split P.Load loc ~mode:`Read
  | Ir.Store loc -> core_split P.Store loc ~mode:`Write
  | Ir.Atomic_op loc -> core_split P.Atomic loc ~mode:`Atomic

(* Envelope over the candidate units: the hull of the per-unit ranges
   for every unit that can execute the work.  [None] if no unit can. *)
let over_units ctx f =
  List.filter_map f ctx.units |> function
  | [] -> None
  | x :: xs -> Some (List.fold_left bjoin x xs)

let instr_r ctx i = over_units ctx (fun u -> instr_unit_r ctx u i)

let node_body_r ctx (n : Node.t) =
  match n.Node.kind with
  | Node.N_vcall v -> over_units ctx (fun u -> vcall_unit_r ctx u v)
  | Node.N_compute is ->
      List.fold_left
        (fun acc i ->
          match (acc, instr_r ctx i) with
          | Some a, Some c -> Some (badd a c)
          | _ -> None)
        (Some bzero) is

(* Trip range for a loop node: the lower end admits zero iterations
   (the workload may never enter the loop), the upper is floored at one
   so a node's range always covers its single-execution price. *)
let trip_r ctx (n : Node.t) =
  match n.Node.loop_trip with
  | None -> rconst 1.
  | Some t ->
      let v = eval_size ctx.sizes t in
      { rlo = Float.max 0. v.rlo; rhi = Float.max 1. v.rhi }

let node_r ?(with_trip = true) ctx (n : Node.t) =
  match node_body_r ctx n with
  | None -> None
  | Some b -> if with_trip then Some (bmul_r (trip_r ctx n) b) else Some b

(* Wire (DMA + hub) price range over the packet-size envelope. *)
let wire_r lnic ~(packet_bytes : r) ~dir =
  let params = lnic.L.Graph.params in
  let hub kind =
    match L.Graph.hub lnic kind with
    | Some h -> float_of_int h.L.Hub.per_packet_cycles
    | None -> 0.
  in
  match dir with
  | `Rx ->
      radd (cost_fn_r params.P.wire_ingress packet_bytes) (rconst (hub `Ingress))
  | `Tx ->
      radd (cost_fn_r params.P.wire_egress packet_bytes) (rconst (hub `Egress))
