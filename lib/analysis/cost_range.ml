(* The range evaluator of {!Clara_dataflow.Cost}'s terms: every price
   becomes an {!Interval} covering the cost under any admissible
   execution — any candidate execution unit, any candidate memory
   region, cache hit or miss, any packet size in the workload envelope,
   and (for stateful accelerator vcalls) the flow-cache hit regime on the
   fast end and the miss/upcall/table-walk regime on the slow end.

   Mapping-independent by design: Bounds runs before (and independently
   of) ILP placement, so a node's range is the hull over every unit that
   could execute it.  Ranges are non-negative; upper endpoints may be
   infinite (an S_opaque loop trip). *)

module Ir = Clara_cir.Ir
module L = Clara_lnic
module C = Clara_dataflow.Cost
module I = Interval

type sizes = {
  payload_bytes : I.t;
  packet_bytes : I.t;
  header_bytes : I.t;
  state_entries : string -> I.t;
  opaque_trip : I.t;
}

let clamp0 v = I.make (Float.max 0. (I.lo v)) (Float.max 0. (I.hi v))

let rec eval_size sizes = function
  | Ir.S_const n -> I.const (float_of_int n)
  | Ir.S_payload -> sizes.payload_bytes
  | Ir.S_packet -> sizes.packet_bytes
  | Ir.S_header -> sizes.header_bytes
  | Ir.S_state_entries s -> sizes.state_entries s
  | Ir.S_scaled (e, k) -> clamp0 (I.scale k (eval_size sizes e))
  | Ir.S_plus (e, k) -> clamp0 (I.add (eval_size sizes e) (I.const (float_of_int k)))
  | Ir.S_opaque -> sizes.opaque_trip

(* The trip rule: zero iterations admissible at the fast end (the
   workload may never enter the loop), at least one charged at the slow
   end, so a range always covers the point price's [max 1 trip]. *)
let trip sizes t =
  let v = eval_size sizes t in
  I.make (Float.max 0. (I.lo v)) (Float.max 1. (I.hi v))

(* Hull of the endpoint evaluations; an infinite upper size yields the
   function's limit (infinite iff it actually grows). *)
let cost_fn (f : L.Cost_fn.t) n =
  let lo_v = L.Cost_fn.eval f (Float.max 0. (I.lo n)) in
  let hi_v =
    if Float.is_finite (I.hi n) then L.Cost_fn.eval f (Float.max 0. (I.hi n))
    else if f.L.Cost_fn.per_unit > 0. || f.L.Cost_fn.log2_coeff > 0. then Float.infinity
    else f.L.Cost_fn.base
  in
  clamp0 (I.make (Float.min lo_v hi_v) (Float.max lo_v hi_v))

let wire lnic ~packet_bytes ~dir =
  let fn, hub = C.wire lnic dir in
  I.add (cost_fn fn packet_bytes) (I.const hub)

type ctx = {
  lnic : L.Graph.t;
  units : L.Unit_.t list;
  state_regions : string -> int list;
  packet_regions : int list;
  state_footprint : string -> int;
  sizes : sizes;
  island_slack : float;
}

(* The simulator charges a cross-island penalty on remote CTM accesses
   that the per-region prices do not carry; the largest access-link
   weight, folded into every access's upper endpoint, covers it. *)
let ctx lnic ~units ~state_regions ~packet_regions ~state_footprint sizes =
  let island_slack = float_of_int (L.Graph.max_access_weight lnic) in
  { lnic; units; state_regions; packet_regions; state_footprint; sizes; island_slack }

(* One access by [u] to region [mem_id]: best case a cache hit, worst
   case the flat (miss) price, both plus the link weight.  No locality
   blend: the point price's blend of hit and flat always lies between
   the two endpoints. *)
let region_access ctx (u : L.Unit_.t) ~mode ~mem_id =
  match L.Graph.access_weight ctx.lnic ~unit_id:u.L.Unit_.id ~mem_id with
  | None -> None
  | Some weight ->
      let m = L.Graph.memory ctx.lnic mem_id in
      let flat = float_of_int (L.Memory.cycles m mode) in
      let hit =
        match (m.L.Memory.cache, mode) with
        | Some c, (`Read | `Write) -> Float.min (float_of_int c.L.Memory.hit_cycles) flat
        | _ -> flat
      in
      let w = float_of_int weight in
      Some (I.make (hit +. w) (flat +. w +. ctx.island_slack))

(* Hull over [items]; [None] when [f] yields nothing. *)
let hull join f items =
  match List.filter_map f items with
  | [] -> None
  | x :: xs -> Some (List.fold_left join x xs)

let regions_access ctx u ~mode regions =
  hull I.join (fun mem_id -> region_access ctx u ~mode ~mem_id) regions

let loc_access ctx u ~mode (loc : Ir.loc) =
  match loc with
  | Ir.L_local ->
      Option.bind (L.Graph.local_region ctx.lnic ~unit_id:u.L.Unit_.id) (fun mem_id ->
          region_access ctx u ~mode ~mem_id)
  | Ir.L_packet -> regions_access ctx u ~mode ctx.packet_regions
  | Ir.L_state s -> regions_access ctx u ~mode (ctx.state_regions s)

type t = { compute : I.t; mem : I.t; accel : I.t }

let zero = { compute = I.const 0.; mem = I.const 0.; accel = I.const 0. }

let add a b =
  { compute = I.add a.compute b.compute; mem = I.add a.mem b.mem;
    accel = I.add a.accel b.accel }

let join a b =
  { compute = I.join a.compute b.compute; mem = I.join a.mem b.mem;
    accel = I.join a.accel b.accel }

(* The slow-regime price of a stateful vcall: replayed on a general
   core with the state walked out of its worst candidate region.  The
   read count is floored at one cache line per 64 state bytes — a flow
   cache miss (or an LPM walk) traverses the backing table, not just
   the [state_reads] the fast path declares. *)
let software_replay_hi ctx (v : Ir.vcall_info) =
  match (L.Graph.general_cores ctx.lnic, v.Ir.state) with
  | [], _ | _, None -> 0.
  | core :: _, Some st -> (
      match C.term ctx.lnic.L.Graph.params core (Ir.Vcall v) with
      | Some (C.T_core_vcall { fn; _ }) ->
          let base = I.hi (cost_fn fn (eval_size ctx.sizes v.Ir.size)) in
          let reads =
            Float.max
              (I.hi (eval_size ctx.sizes v.Ir.state_reads))
              (float_of_int (ctx.state_footprint st) /. 64.)
          in
          let writes = I.hi (eval_size ctx.sizes v.Ir.state_writes) in
          let acc mode =
            match regions_access ctx core ~mode (ctx.state_regions st) with
            | Some a -> I.hi a
            | None -> 0.
          in
          base +. I.mulf reads (acc `Read) +. I.mulf writes (acc `Write)
      | _ -> 0.)

let term_range ctx u = function
  | C.T_op c -> Some { zero with compute = I.const c }
  | C.T_access { op; mode; loc } ->
      Option.map (fun m -> { zero with compute = I.const op; mem = m }) (loc_access ctx u ~mode loc)
  | C.T_accel_vcall { fn; v } ->
      let hit = cost_fn fn (eval_size ctx.sizes v.Ir.size) in
      if v.Ir.state = None then Some { zero with accel = hit }
      else
        (* Stateful accelerator work has two regimes: the flow-cache hit
           at the hardware price, and the miss paying the upcall
           (off-path targets) plus a software replay over the backing
           table.  The range spans both. *)
        let upcall = float_of_int (L.Graph.upcall_cycles ctx.lnic) in
        Some { zero with accel = hit; compute = I.make 0. (upcall +. software_replay_hi ctx v) }
  | C.T_core_vcall { fn; v } -> (
      let base = cost_fn fn (eval_size ctx.sizes v.Ir.size) in
      match v.Ir.state with
      | None -> Some { zero with compute = base }
      | Some st -> (
          let reads = eval_size ctx.sizes v.Ir.state_reads in
          let writes = eval_size ctx.sizes v.Ir.state_writes in
          let regions = ctx.state_regions st in
          match
            (regions_access ctx u ~mode:`Read regions, regions_access ctx u ~mode:`Write regions)
          with
          | Some rc, Some wc ->
              Some { zero with compute = base; mem = I.add (I.mul reads rc) (I.mul writes wc) }
          | _ -> None))

(* Each instruction is hulled over the candidate units that can run it,
   then the node sums its instructions. *)
let node ctx n =
  let params = ctx.lnic.L.Graph.params in
  List.fold_left
    (fun acc i ->
      match acc with
      | None -> None
      | Some a ->
          Option.map (add a)
            (hull join (fun u -> Option.bind (C.term params u i) (term_range ctx u)) ctx.units))
    (Some zero) (C.instrs n)
