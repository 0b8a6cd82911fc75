module L = Clara_lnic
module W = Clara_workload
module Heap = Clara_util.Heap
module Pool = Clara_util.Pool
module J = Clara_util.Json

(* Per-run packet/drop counters and an ingress queue-depth histogram,
   hoisted so the per-packet path only bumps preallocated cells. *)
let obs = Clara_obs.Registry.default
let c_packets = Clara_obs.Registry.counter obs "nicsim.packets"
let c_drops = Clara_obs.Registry.counter obs "nicsim.drops"
let c_runs = Clara_obs.Registry.counter obs "nicsim.runs"
let h_qdepth = Clara_obs.Registry.histogram obs "nicsim.queue_depth"

type fast_mode = Event_only | Auto of { warmup : int }

let no_fast : Fastpath.stats =
  { Fastpath.replayed = 0; executed = 0; confirmed = 0; poisoned = 0; enabled = false }

type result = {
  summary : Stats.summary;
  emem_hit_rate : float;
  flow_cache_hit_rate : float;
  freq_mhz : int;
  fast : Fastpath.stats;
}

let ratio h m =
  let t = h + m in
  if t = 0 then Float.nan else float_of_int h /. float_of_int t

(* Retire [arg] packs the packet type so attribution can bucket by it
   without keeping packets around. *)
let retire_arg pkt =
  (W.Packet.proto_number pkt.W.Packet.proto * 2) + if W.Packet.is_syn pkt then 1 else 0

let[@inline] ev sink ~seq ~prog ~thread ~kind ~label ~t0 ~t1 ~arg =
  match sink with
  | None -> ()
  | Some s -> Trace.record s ~seq ~prog ~thread ~kind ~label ~t0 ~t1 ~arg

(* The threads and ingress-queue slots of [weights] sides of one NIC:
   the totals default to the NIC's own, so solo, tenant and sharded runs
   are comparable at a pinned capacity, and divide by {!Scheduler.split}
   (a solo run is a one-weight split), which conserves both pools
   whenever they cover every side. *)
let slices ?threads ?queue_capacity lnic ~weights =
  let total_threads =
    match threads with Some t -> max 1 t | None -> max 1 (L.Graph.total_threads lnic)
  in
  let total_capacity =
    match queue_capacity with
    | Some c -> max 1 c
    | None -> (
        match L.Graph.hub lnic `Ingress with
        | Some h -> h.L.Hub.queue_capacity
        | None -> 512)
  in
  (Scheduler.split ~total:total_threads ~weights, Scheduler.split ~total:total_capacity ~weights)

(* Earliest-free thread selection: the thread the naive scan would pick
   (earliest free, lowest index on ties) is the root of a binary min-heap
   of (free cycle, index) pairs, each packed into one int as
   [free lsl bits lor index] so the lexicographic order is plain int
   order.  Dispatch always takes the root and gives it a later free time,
   so the heap never changes size: one [Heap.replace_min] per packet.
   Under light load every other thread is already free, the re-keyed
   root sinks to a leaf, and the sift's depth, log2 of the thread count,
   is what a 480-thread NIC pays per packet over a 16-thread one. *)
module Tpool = struct
  type t = { heap : Heap.t; bits : int; n : int }

  let create n =
    let bits = ref 1 in
    while 1 lsl !bits < n do incr bits done;
    (* Ascending keys with free = 0 already satisfy the heap invariant. *)
    let heap = Heap.create ~capacity:n () in
    for i = 0 to n - 1 do Heap.push heap i done;
    { heap; bits = !bits; n }

  let[@inline] min_index t = Heap.min_elt t.heap land ((1 lsl t.bits) - 1)
  let[@inline] min_free t = Heap.min_elt t.heap lsr t.bits

  let set_min_free t f =
    if f lsr (62 - t.bits) <> 0 then
      invalid_arg "Engine: simulated time overflows the thread pool";
    Heap.replace_min t.heap ((f lsl t.bits) lor min_index t)
end

(* ------------------------------------------------------------------ *)
(* The one dispatch core.  [run], [run_tenants] and [run_sharded] all feed
   packets through here: a side is one program's slice of the NIC (its
   threads, its share of the ingress queue, its stats/in-flight window,
   and, in [run ~fast] only, its fast-path memo table).  Every trace and
   telemetry event therefore exists exactly once. *)

type side = {
  prog : Device.prog;
  pid : int;
  threads : Tpool.t;
  stats : Stats.t;
  inflight : Heap.t;
  capacity : int;
  fp : Fastpath.t option;
  recorder : Device.recorder option;  (* reused across packets; rearmed per packet *)
}

let make_side ~pid ~nthreads ~capacity ~fp prog =
  {
    prog;
    pid;
    threads = Tpool.create nthreads;
    stats = Stats.create ();
    inflight = Heap.create ();
    capacity;
    fp;
    recorder = Some (Device.fresh_recorder ());
  }

(* One packet's service on thread [ti] from [start].  It is a top-level
   function, not a closure inside [dispatch], which would be allocated
   for every packet. *)
let execute ~sim ~sink side ~seq ~ti ~start recorder pkt =
  Device.execute sim ~seq ~prog:side.pid ~thread:ti ~trace:sink ~recorder ~now:start
    side.prog pkt

(* [obs_on] gates the process-global metrics: sharded workers run on
   other domains, where the registry's plain mutable cells must not be
   touched concurrently.  [tel] is the optional sim-time telemetry
   collector: like [sink], every hook is one [match], so runs without
   [--metrics] do no telemetry work at all. *)
let dispatch ~sim ~sink ~obs_on ~tel ~cycles_of_ns side ~seq (pkt : W.Packet.t) =
  let arrival = cycles_of_ns pkt.W.Packet.arrival_ns in
  let inflight = side.inflight in
  (* Retire completed packets from the in-flight window. *)
  while (not (Heap.is_empty inflight)) && Heap.min_elt inflight <= arrival do
    ignore (Heap.pop inflight)
  done;
  let depth = Heap.length inflight in
  if obs_on then Clara_obs.Metrics.observe h_qdepth depth;
  (match tel with
  | None -> ()
  | Some t -> Telemetry.on_arrival t ~tenant:side.pid ~now:arrival ~depth);
  ev sink ~seq ~prog:side.pid ~thread:(-1) ~kind:Trace.Arrival ~label:"" ~t0:arrival
    ~t1:arrival ~arg:depth;
  let nthreads = side.threads.Tpool.n in
  if depth >= side.capacity + nthreads then begin
    (* Ingress queue full: drop. *)
    if obs_on then Clara_obs.Metrics.incr c_drops;
    Stats.record_drop side.stats;
    (match tel with
    | None -> ()
    | Some t -> Telemetry.on_drop t ~tenant:side.pid ~now:arrival);
    ev sink ~seq ~prog:side.pid ~thread:(-1) ~kind:Trace.Dropped ~label:"" ~t0:arrival
      ~t1:arrival ~arg:depth
  end
  else begin
    (* Earliest-free thread (lowest index on ties). *)
    let ti = Tpool.min_index side.threads in
    let start = Int.max arrival (Tpool.min_free side.threads) in
    if start > arrival then
      ev sink ~seq ~prog:side.pid ~thread:ti ~kind:Trace.Queue_wait ~label:"" ~t0:arrival
        ~t1:start ~arg:depth;
    ev sink ~seq ~prog:side.pid ~thread:ti ~kind:Trace.Thread_bind ~label:"" ~t0:start
      ~t1:start ~arg:ti;
    let done_ =
      match side.fp with
      | None -> Device.now (execute ~sim ~sink side ~seq ~ti ~start None pkt)
      | Some fp -> (
          match Fastpath.decide fp ~seq pkt with
          | Fastpath.Replay p ->
              Fastpath.count_replay fp;
              Device.replay sim ~start p
          | Fastpath.Record ->
              Fastpath.count_execute fp;
              let ctx = execute ~sim ~sink side ~seq ~ti ~start side.recorder pkt in
              Fastpath.note fp pkt (Device.recorded ctx);
              Device.now ctx
          | Fastpath.Plain ->
              Fastpath.count_execute fp;
              Device.now (execute ~sim ~sink side ~seq ~ti ~start None pkt))
    in
    Tpool.set_min_free side.threads done_;
    Heap.push inflight done_;
    if obs_on then Clara_obs.Metrics.incr c_packets;
    (match tel with
    | None -> ()
    | Some t ->
        Telemetry.on_retire t ~sim ~tenant:side.pid ~now:arrival
          ~latency:(done_ - arrival) ~service:(done_ - start));
    (match sink with
    | None -> ()
    | Some s ->
        Trace.record s ~seq ~prog:side.pid ~thread:ti ~kind:Trace.Retire ~label:""
          ~t0:done_ ~t1:done_ ~arg:(retire_arg pkt));
    Stats.record side.stats ~proto:pkt.W.Packet.proto ~syn:(W.Packet.is_syn pkt)
      ~latency_cycles:(done_ - arrival)
  end

let[@inline] cycles_of_ns_at freq_mhz ns =
  Int64.to_int (Int64.div (Int64.mul ns (Int64.of_int freq_mhz)) 1000L)

(* Tracing replays nothing: a replayed packet would emit no events, so
   any sink forces the event path (keeping traced and untraced results
   byte-identical, which the bench trace guard checks). *)
let fastpath_of fast sink =
  match (fast, sink) with
  | Auto { warmup }, None -> Some (Fastpath.create ~warmup)
  | _ -> None

let finish sim ~freq_mhz side =
  {
    summary = Stats.summarize side.stats;
    emem_hit_rate =
      ratio (Device.emem_hits_of sim side.pid) (Device.emem_misses_of sim side.pid);
    flow_cache_hit_rate =
      ratio
        (Device.flow_cache_hits_of sim side.pid)
        (Device.flow_cache_misses_of sim side.pid);
    freq_mhz;
    fast = (match side.fp with Some fp -> Fastpath.stats fp | None -> no_fast);
  }

(* Single-program run against one sim; shared by [run] (full NIC,
   metrics on) and [run_sharded]'s workers (a 1/shards slice, metrics
   off).  Returns the side so sharding can merge raw stats. *)
let run_core ?sink ?tel ~nthreads ~capacity ~fp ~obs_on lnic (prog : Device.prog)
    (trace : W.Trace.t) =
  let sim = Device.create_sim lnic prog in
  let freq_mhz = L.Graph.freq_mhz lnic in
  (match sink with None -> () | Some s -> Trace.set_progs s [| prog.Device.name |]);
  let side = make_side ~pid:0 ~nthreads ~capacity ~fp prog in
  let cycles_of_ns = cycles_of_ns_at freq_mhz in
  let seq = ref (-1) in
  W.Trace.iter
    (fun pkt ->
      incr seq;
      dispatch ~sim ~sink ~obs_on ~tel ~cycles_of_ns side ~seq:!seq pkt)
    trace;
  (side, sim, freq_mhz)

let run ?threads ?queue_capacity ?sink ?metrics ?(fast = Event_only) lnic prog trace =
  Clara_obs.Registry.span obs "nicsim" @@ fun () ->
  Clara_obs.Metrics.incr c_runs;
  (match metrics with
  | None -> ()
  | Some t -> Telemetry.set_tenants t [| prog.Device.name |]);
  let nthreads, caps = slices ?threads ?queue_capacity lnic ~weights:[| 1 |] in
  let side, sim, freq_mhz =
    run_core ?sink ?tel:metrics ~nthreads:nthreads.(0) ~capacity:caps.(0)
      ~fp:(fastpath_of fast sink) ~obs_on:true lnic prog trace
  in
  finish sim ~freq_mhz side

let pp_hit_rate fmt r =
  (* A rate can legitimately be NaN (feature never exercised); say so
     instead of printing "nan%". *)
  if Float.is_nan r then Format.pp_print_string fmt "n/a"
  else Format.fprintf fmt "%.0f%%" (100. *. r)

let pp_result fmt r =
  Format.fprintf fmt "%a | emem hit %a | fc hit %a" Stats.pp_summary r.summary pp_hit_rate
    r.emem_hit_rate pp_hit_rate r.flow_cache_hit_rate;
  if r.fast.Fastpath.replayed > 0 then
    Format.fprintf fmt " | fast %d/%d replayed" r.fast.Fastpath.replayed
      (r.fast.Fastpath.replayed + r.fast.Fastpath.executed)

let result_to_json r =
  let num v = J.Float v (* NaN/inf serialize as null *) in
  J.Obj
    [
      ("packets", J.Int r.summary.Stats.packets);
      ("drops", J.Int r.summary.Stats.drops);
      ("mean_cycles", num r.summary.Stats.mean_cycles);
      ("p50_cycles", J.Int r.summary.Stats.p50_cycles);
      ("p99_cycles", J.Int r.summary.Stats.p99_cycles);
      ("max_cycles", J.Int r.summary.Stats.max_cycles);
      ("tcp_mean_cycles", num r.summary.Stats.tcp_mean);
      ("udp_mean_cycles", num r.summary.Stats.udp_mean);
      ("syn_mean_cycles", num r.summary.Stats.syn_mean);
      ("emem_hit_rate", num r.emem_hit_rate);
      ("flow_cache_hit_rate", num r.flow_cache_hit_rate);
      ("freq_mhz", J.Int r.freq_mhz);
      ("fast_replayed", J.Int r.fast.Fastpath.replayed);
      ("fast_executed", J.Int r.fast.Fastpath.executed);
      ("fast_confirmed", J.Int r.fast.Fastpath.confirmed);
      ("fast_poisoned", J.Int r.fast.Fastpath.poisoned);
      ("fast_enabled", J.Bool r.fast.Fastpath.enabled);
    ]

(* ------------------------------------------------------------------ *)
(* N-tenant co-residence: every tenant's programs share one simulator
   (accelerators, memory tiers, DMA lanes, caches all contend for real)
   while hardware threads and ingress-queue slots are divided by weight
   via {!Scheduler.split}.  Service order within each arrival tick is
   the two-stage WRR of {!Scheduler}, so a heavy tenant cannot starve a
   light one of dispatch slots. *)

let run_tenants ?threads ?queue_capacity ?weights ?sink ?metrics lnic
    (progs : Device.prog array) (traces : W.Trace.t array) =
  let n = Array.length progs in
  if n = 0 then invalid_arg "Engine.run_tenants: no tenants";
  if Array.length traces <> n then
    invalid_arg "Engine.run_tenants: progs and traces disagree on tenant count";
  let weights =
    match weights with
    | None -> Array.make n 1
    | Some w ->
        if Array.length w <> n then
          invalid_arg "Engine.run_tenants: weights and tenant count disagree";
        Array.iter
          (fun x -> if x <= 0 then invalid_arg "Engine.run_tenants: weights must be positive")
          w;
        w
  in
  Clara_obs.Registry.span obs "nicsim-tenants" @@ fun () ->
  Clara_obs.Metrics.incr c_runs;
  let sim = Device.create_sim_shared lnic (Array.to_list progs) in
  let freq_mhz = L.Graph.freq_mhz lnic in
  let nthreads, caps = slices ?threads ?queue_capacity lnic ~weights in
  (match sink with
  | None -> ()
  | Some s -> Trace.set_progs s (Array.map (fun p -> p.Device.name) progs));
  (match metrics with
  | None -> ()
  | Some t -> Telemetry.set_tenants t (Array.map (fun p -> p.Device.name) progs));
  let sides =
    Array.init n (fun i ->
        make_side ~pid:i ~nthreads:nthreads.(i) ~capacity:caps.(i) ~fp:None progs.(i))
  in
  (* Merge all arrival streams under a total order — ties broken on
     (arrival, tenant, source index) so the merge is deterministic even
     with colliding timestamps. *)
  let tagged =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun tid tr -> Array.mapi (fun i p -> (p, tid, i)) tr.W.Trace.packets)
            traces))
  in
  Array.sort
    (fun ((p : W.Packet.t), ta, ia) ((q : W.Packet.t), tb, ib) ->
      let c = compare p.W.Packet.arrival_ns q.W.Packet.arrival_ns in
      if c <> 0 then c
      else
        let c = compare ta tb in
        if c <> 0 then c else compare ia ib)
    tagged;
  (* Packets sharing an arrival tick land in their tenants' VF queues
     and are dispatched in WRR grant order; credit/cursor state persists
     across ticks, so service stays weight-proportional over any busy
     period.  With strictly increasing timestamps this degenerates to
     plain arrival order. *)
  let sched : W.Packet.t Scheduler.t = Scheduler.create ~weights in
  let cycles_of_ns = cycles_of_ns_at freq_mhz in
  let seq = ref (-1) in
  let m = Array.length tagged in
  let i = ref 0 in
  while !i < m do
    let (p0 : W.Packet.t), _, _ = tagged.(!i) in
    let t0 = p0.W.Packet.arrival_ns in
    let continue = ref true in
    while !continue && !i < m do
      let (p : W.Packet.t), tid, _ = tagged.(!i) in
      if Int64.equal p.W.Packet.arrival_ns t0 then begin
        Scheduler.enqueue sched ~tenant:tid p;
        incr i
      end
      else continue := false
    done;
    Scheduler.drain sched (fun tid pkt ->
        incr seq;
        (match metrics with
        | None -> ()
        | Some t ->
            let now = cycles_of_ns pkt.W.Packet.arrival_ns in
            Telemetry.on_deficit t ~tenant:tid ~now ~credit:(Scheduler.credit sched tid));
        dispatch ~sim ~sink ~obs_on:true ~tel:metrics ~cycles_of_ns sides.(tid)
          ~seq:!seq pkt)
  done;
  Array.map (fun side -> finish sim ~freq_mhz side) sides

(* ------------------------------------------------------------------ *)
(* Domain-parallel simulation: flows are sharded onto independent NIC
   slices (an equal-weight {!slices} split of the threads and ingress
   queue), the slices simulate concurrently
   on the shared worker pool, and raw stats merge in shard order — so the merged
   result depends on the shard count, never on the domain count. *)

let run_sharded ?(domains = 1) ?shards ?threads ?queue_capacity ?metrics lnic
    (prog : Device.prog) (trace : W.Trace.t) =
  Clara_obs.Registry.span obs "nicsim-sharded" @@ fun () ->
  Clara_obs.Metrics.incr c_runs;
  let shards = match shards with Some s -> max 1 s | None -> max 1 domains in
  (match metrics with
  | None -> ()
  | Some t -> Telemetry.set_tenants t [| prog.Device.name |]);
  let freq_mhz = L.Graph.freq_mhz lnic in
  let per_threads, per_capacity =
    slices ?threads ?queue_capacity lnic ~weights:(Array.make shards 1)
  in
  (* Partition by flow so no flow spans two slices; arrival order is
     preserved within each shard.  Each shard's array is sized by a
     first counting pass and filled in the second. *)
  let packets = trace.W.Trace.packets in
  let shard_of = Array.map (fun p -> W.Packet.flow_key p mod shards) packets in
  let counts = Array.make shards 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) shard_of;
  let parts = Array.map (fun c -> if c = 0 then [||] else Array.make c packets.(0)) counts in
  let filled = Array.make shards 0 in
  Array.iteri
    (fun i s ->
      parts.(s).(filled.(s)) <- packets.(i);
      filled.(s) <- filled.(s) + 1)
    shard_of;
  let sub = Array.map W.Trace.of_packets parts in
  let outcomes, _pool_stats =
    Pool.map ~domains
      (fun i ->
        (* Each worker records into its own collector (the coordinator's
           cells must not be touched from other domains); the per-shard
           series merge below in shard order, so the merged telemetry —
           like the merged stats — depends on the shard count only. *)
        let tel = Option.map Telemetry.fresh_like metrics in
        let side, sim, freq =
          run_core ?tel ~nthreads:per_threads.(i) ~capacity:per_capacity.(i) ~fp:None
            ~obs_on:false lnic prog sub.(i)
        in
        (side, sim, freq, tel))
      shards
  in
  let done_ =
    Array.map
      (function
        | Pool.Done r -> r
        | Pool.Failed m -> failwith ("Engine.run_sharded: shard failed: " ^ m))
      outcomes
  in
  (match metrics with
  | None -> ()
  | Some t ->
      Telemetry.absorb t
        (Array.to_list done_ |> List.filter_map (fun (_, _, _, tel) -> tel)));
  (* The workers could not touch the global metrics; account the merged
     totals once, from the coordinating domain. *)
  let stats_all = Array.to_list (Array.map (fun (side, _, _, _) -> side.stats) done_) in
  let merged = Stats.merge stats_all in
  let summary = Stats.summarize merged in
  Clara_obs.Metrics.add c_packets summary.Stats.packets;
  Clara_obs.Metrics.add c_drops summary.Stats.drops;
  let sum f = Array.fold_left (fun a (side, sim, _, _) -> a + f sim side.pid) 0 done_ in
  {
    summary;
    emem_hit_rate = ratio (sum Device.emem_hits_of) (sum Device.emem_misses_of);
    flow_cache_hit_rate =
      ratio (sum Device.flow_cache_hits_of) (sum Device.flow_cache_misses_of);
    freq_mhz;
    fast = no_fast;
  }
