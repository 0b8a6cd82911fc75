module L = Clara_lnic
module D = Clara_dataflow
module Ir = Clara_cir.Ir
module W = Clara_workload
module Tp = Clara_predict.Throughput

type report = {
  solo_cycles : float;
  sliced_cycles : float;
  contended_cycles : float;
  slowdown : float;
  accel_utilization : float;
  saturated : bool;
}

let shrink_emem_cache (g : L.Graph.t) ~by_bytes =
  let memories =
    Array.map
      (fun (m : L.Memory.t) ->
        match (m.L.Memory.level, m.L.Memory.cache) with
        | L.Memory.External, Some c ->
            let remaining = max (64 * 1024) (c.L.Memory.cache_bytes - by_bytes) in
            { m with L.Memory.cache = Some { c with L.Memory.cache_bytes = remaining } }
        | _ -> m)
      g.L.Graph.memories
  in
  L.Graph.update g ~memories

let state_footprint_of df =
  List.fold_left (fun acc s -> acc + Ir.state_bytes s) 0 (D.Graph.states df)

(* Cycles per packet spent on genuine accelerator units under a mapping.
   Classification is by the LNIC unit class, not by bottleneck-row shape:
   a single general core also shows parallelism = 1, and counting its
   compute as accelerator time overstated head-of-line contention on
   thread-poor slices. *)
let accel_cycles_per_packet (a : Pipeline.analysis) =
  let is_accel name =
    Array.exists
      (fun (u : L.Unit_.t) ->
        String.equal u.L.Unit_.name name && not (L.Unit_.is_general u))
      a.Pipeline.lnic.L.Graph.units
  in
  let tp =
    Tp.estimate ~sizes:a.Pipeline.sizes ~prob:a.Pipeline.prob a.Pipeline.lnic a.Pipeline.df
      a.Pipeline.mapping
  in
  List.fold_left
    (fun acc (r : Tp.bottleneck) ->
      if is_accel r.Tp.resource then acc +. r.Tp.cycles_per_packet else acc)
    0. tp.Tp.resources

(* N-tenant interference: tenant [i] runs on a [weights.(i)]/sum slice
   of the NIC, its EMEM cache shrunk by the summed state footprint of
   its co-residents, and its accelerator operations inflated by the
   aggregate utilization the co-residents put on the shared
   accelerators.  Utilization is traffic-aware (each tenant's own
   profile rate) and computed against the slice that tenant actually
   runs on — the full-NIC pipeline maps onto more general threads and a
   differently-scaled memory system, which understated per-packet
   accelerator demand roughly in proportion to the slice. *)
let analyze_n ?options ?weights lnic ~sources ~profiles =
  let n = Array.length sources in
  if n = 0 then Error "analyze_n: no tenants"
  else if Array.length profiles <> n then
    Error "analyze_n: sources and profiles disagree on tenant count"
  else begin
    let weights = match weights with None -> Array.make n 1 | Some w -> w in
    if Array.length weights <> n then
      Error "analyze_n: weights and tenant count disagree"
    else if Array.exists (fun w -> w <= 0) weights then
      Error "analyze_n: weights must be positive"
    else begin
      let wsum = Array.fold_left ( + ) 0 weights in
      let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v in
      let rec map_e f = function
        | [] -> Ok []
        | x :: tl ->
            let* y = f x in
            let* ys = map_e f tl in
            Ok (y :: ys)
      in
      let idxs = List.init n Fun.id in
      let analyze i lnic' =
        Pipeline.analyze_for_profile ?options lnic' ~source:sources.(i) ~profile:profiles.(i)
      in
      (* Per-tenant mapping on its own slice: footprint, per-packet
         accelerator cycles, induced utilization. *)
      let* pre =
        map_e
          (fun i ->
            let slice = L.Graph.slice lnic ~keep_num:weights.(i) ~keep_den:wsum in
            let* a = analyze i slice in
            let hz = float_of_int (L.Graph.freq_mhz slice) *. 1e6 in
            let u = profiles.(i).W.Profile.rate_pps *. accel_cycles_per_packet a /. hz in
            Ok (a, state_footprint_of a.Pipeline.df, u))
          idxs
      in
      let pre = Array.of_list pre in
      let total_u = Array.fold_left (fun a (_, _, u) -> a +. u) 0. pre in
      let* reports =
        map_e
          (fun i ->
            let a_slice, _, own_u = pre.(i) in
            let trace = W.Trace.synthesize ~seed:17L profiles.(i) in
            let predict a = (Pipeline.predict a trace).Clara_predict.Latency.mean_cycles in
            let* a_full = analyze i lnic in
            let solo = predict a_full in
            let sliced = predict a_slice in
            let others_fp =
              Array.to_list pre
              |> List.mapi (fun j (_, fp, _) -> if j = i then 0 else fp)
              |> List.fold_left ( + ) 0
            in
            let* a_shrunk =
              analyze i (shrink_emem_cache a_slice.Pipeline.lnic ~by_bytes:others_fp)
            in
            let base = predict a_shrunk in
            (* Head-of-line blocking on shared accelerators: inflate
               this tenant's accelerator time by the aggregate
               co-resident utilization (M/M/1-style).  The queueing term
               needs u < 1 to stay finite, so it is capped — but
               saturation is no longer silent: [saturated] flags any mix
               whose total demand (co-residents plus self) reaches the
               accelerators' capacity, meaning the contended number is a
               lower bound. *)
            let others_u = total_u -. own_u in
            let u = Float.min 0.9 others_u in
            let own_accel = accel_cycles_per_packet a_shrunk in
            let contended = base +. (own_accel *. (u /. (1. -. u))) in
            Ok
              {
                solo_cycles = solo;
                sliced_cycles = sliced;
                contended_cycles = contended;
                slowdown = contended /. solo;
                accel_utilization = own_u;
                saturated = total_u >= 1.;
              })
          idxs
      in
      Ok (Array.of_list reports)
    end
  end
