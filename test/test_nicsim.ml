(* Tests for the SmartNIC simulator: LRU, memory model, device ops,
   engine dynamics. *)

module Lru = Clara_util.Lru
module Heap = Clara_util.Heap
module Mem = Clara_nicsim.Mem_model
module Dev = Clara_nicsim.Device
module Eng = Clara_nicsim.Engine
module Stats = Clara_nicsim.Stats
module L = Clara_lnic
module W = Clara_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lnic = L.Netronome.default

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)

let test_lru_basics () =
  let l = Lru.create ~capacity:2 in
  check "miss on empty" false (Lru.touch l 1);
  check "hit" true (Lru.touch l 1);
  check "miss 2" false (Lru.touch l 2);
  check_int "size 2" 2 (Lru.size l);
  (* Insert 3: evicts 1 (2 was more recent... no, 1 was touched last
     before 2; order: 2 most recent, then 1). Evicts 1. *)
  check "miss 3 evicts lru" false (Lru.touch l 3);
  check "1 evicted" false (Lru.mem l 1);
  check "2 kept" true (Lru.mem l 2);
  check "3 kept" true (Lru.mem l 3)

let test_lru_recency () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.touch l 1);
  ignore (Lru.touch l 2);
  ignore (Lru.touch l 1); (* refresh 1: now 2 is LRU *)
  ignore (Lru.touch l 3);
  check "2 evicted" false (Lru.mem l 2);
  check "1 kept" true (Lru.mem l 1)

let prop_lru_capacity =
  QCheck.Test.make ~name:"lru never exceeds capacity" ~count:100
    (QCheck.pair (QCheck.int_range 1 16) (QCheck.list_of_size (QCheck.Gen.return 200) (QCheck.int_range 0 50)))
    (fun (cap, keys) ->
      let l = Lru.create ~capacity:cap in
      List.iter (fun k -> ignore (Lru.touch l k)) keys;
      Lru.size l <= cap)

(* Model-based property: random operations on an [Lru] must answer as
   a reference LRU kept as a list of keys, most recent first. *)
type lru_op = Touch of int | Mem of int | Size | Clear

let lru_op_print = function
  | Touch k -> Printf.sprintf "touch %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Size -> "size"
  | Clear -> "clear"

let lru_ops_gen =
  let open QCheck.Gen in
  int_range 1 300 >>= fun cap ->
  (* Keys spread over twice the capacity (negative ones too) so runs
     cross each growth step and reach eviction at capacity. *)
  let key = map (fun k -> k * 0x10001) (int_range (-cap) (2 * cap)) in
  let op =
    frequency
      [ (20, map (fun k -> Touch k) key); (5, map (fun k -> Mem k) key);
        (1, return Size); (1, return Clear) ]
  in
  pair (return cap) (list_size (int_range 0 1500) op)

let prop_lru_matches_model =
  QCheck.Test.make ~name:"lru matches a list model" ~count:200
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "cap %d: %s" cap (String.concat "; " (List.map lru_op_print ops)))
       lru_ops_gen)
    (fun (cap, ops) ->
      let l = Lru.create ~capacity:cap in
      let model = ref [] in
      (* The change counter moves exactly when the set or its order does
         (and on every clear); a touch of the head leaves it. *)
      let moved_iff changed f =
        let v = Lru.version l in
        let ok = f () in
        ok && (Lru.version l <> v) = changed
      in
      List.for_all
        (fun op ->
          match op with
          | Touch k ->
              let hit = List.mem k !model in
              let at_head = match !model with h :: _ -> h = k | [] -> false in
              let rest = List.filter (( <> ) k) !model in
              model :=
                k :: (if List.length rest >= cap then List.filteri (fun i _ -> i < cap - 1) rest
                      else rest);
              moved_iff (not at_head) (fun () -> Lru.touch l k = hit)
          | Mem k -> moved_iff false (fun () -> Lru.mem l k = List.mem k !model)
          | Size -> moved_iff false (fun () -> Lru.size l = List.length !model)
          | Clear ->
              model := [];
              moved_iff true (fun () ->
                  Lru.clear l;
                  Lru.size l = 0))
        ops
      && Lru.size l = List.length !model
      && List.for_all (Lru.mem l) !model)

(* A hit stores only immediate ints, so a warm set's hits allocate
   nothing: only the two [Gc.minor_words] floats show up. *)
let test_lru_hit_allocates_nothing () =
  let l = Lru.create ~capacity:1024 in
  for k = 0 to 511 do
    ignore (Lru.touch l (k * 64))
  done;
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    if Lru.touch l ((i land 511) * 64) then incr hits
  done;
  let words = Gc.minor_words () -. before in
  check_int "every touch hits" 10_000 !hits;
  check (Printf.sprintf "10k hits allocate < 100 minor words (%.0f)" words) true (words < 100.)

(* Growth appends pages the minor heap takes: filling a set to 4,096
   slots allocates no major-heap block. *)
let test_lru_growth_minor_only () =
  let l = Lru.create ~capacity:4096 in
  let w =
    Fixtures.direct_major_words (fun () ->
        for k = 0 to 4095 do
          ignore (Lru.touch l (k * 64))
        done)
  in
  check_int "grown to capacity" 4096 (Lru.size l);
  check "every key present" true (List.for_all (fun k -> Lru.mem l (k * 64)) (List.init 4096 Fun.id));
  check (Printf.sprintf "growth to 4096 slots: %.0f direct major words" w) true (w = 0.)

(* ------------------------------------------------------------------ *)
(* Min-heap                                                            *)

let test_heap_basics () =
  let h = Heap.create () in
  check "empty" true (Heap.is_empty h);
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3 ];
  check_int "size" 5 (Heap.length h);
  check_int "min" 1 (Heap.min_elt h);
  check_int "pop 1" 1 (Heap.pop h);
  check_int "pop duplicate 1" 1 (Heap.pop h);
  check_int "pop 3" 3 (Heap.pop h);
  Heap.push h 0;
  check_int "new min after push" 0 (Heap.min_elt h);
  Heap.clear h;
  check "cleared" true (Heap.is_empty h);
  check "min_elt on empty raises" true
    (try
       ignore (Heap.min_elt h);
       false
     with Invalid_argument _ -> true)

let prop_heap_drains_sorted =
  QCheck.Test.make ~name:"heap drains in nondecreasing order" ~count:200
    (QCheck.list (QCheck.int_range (-1000) 1000))
    (fun xs ->
      let h = Heap.create ~capacity:1 () in
      List.iter (Heap.push h) xs;
      let out = List.init (List.length xs) (fun _ -> Heap.pop h) in
      Heap.is_empty h && out = List.sort compare xs)

(* A heap that outgrows its first 256 slots spills into pages: it
   still drains sorted, [replace_min] still works there, and growing to
   3,000 slots allocates no major-heap block. *)
let test_heap_spills_to_pages () =
  let n = 3000 in
  let xs = List.init n (fun i -> (i * 7919) mod 1009 - 500) in
  let h = Heap.create () in
  let w = Fixtures.direct_major_words (fun () -> List.iter (Heap.push h) xs) in
  check (Printf.sprintf "growth to %d slots: %.0f direct major words" n w) true (w = 0.);
  check_int "size" n (Heap.length h);
  Heap.replace_min h 10_000;
  let out = List.init n (fun _ -> Heap.pop h) in
  let expected = List.sort compare (10_000 :: List.tl (List.sort compare xs)) in
  check "drains sorted after a replace_min" true (out = expected && Heap.is_empty h)

let prop_heap_replace_min =
  QCheck.Test.make ~name:"heap replace_min is pop then push" ~count:200
    (QCheck.pair (QCheck.int_range (-1000) 1000)
       (QCheck.list_of_size (QCheck.Gen.int_range 1 40) (QCheck.int_range (-1000) 1000)))
    (fun (x, xs) ->
      let h = Heap.create ~capacity:1 () in
      List.iter (Heap.push h) xs;
      Heap.replace_min h x;
      let out = List.init (List.length xs) (fun _ -> Heap.pop h) in
      let rest = List.tl (List.sort compare xs) in
      Heap.is_empty h && out = List.sort compare (x :: rest))

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

module Order_stat = Clara_util.Order_stat

(* The shapes a quicksort gets wrong first (runs of duplicates, sorted
   and reversed input) at the lengths around its insertion-sort cutoff
   of 16, plus a thousand, the simulator's run length. *)
let order_stat_case =
  let open QCheck.Gen in
  let lengths = [ 0; 1; 2; 15; 16; 17; 1000 ] in
  let shapes = [ `Dups; `Sorted; `Reversed; `Random ] in
  map3
    (fun n shape seed -> (n, shape, seed))
    (oneofl lengths) (oneofl shapes) (int_bound 1_000_000)

let shaped n shape seed =
  let rng = Random.State.make [| seed |] in
  let a =
    Array.init n (fun _ ->
        match shape with
        | `Dups -> Random.State.int rng 4
        | _ -> Random.State.int rng 100_000 - 50_000)
  in
  (match shape with
  | `Sorted -> Array.sort compare a
  | `Reversed -> Array.sort (fun x y -> compare y x) a
  | `Dups | `Random -> ());
  a

let print_case (n, shape, seed) =
  Printf.sprintf "n=%d shape=%s seed=%d" n
    (match shape with
    | `Dups -> "dups" | `Sorted -> "sorted" | `Reversed -> "reversed" | `Random -> "random")
    seed

let prop_order_stat_ints =
  QCheck.Test.make ~name:"order_stat ints equal Array.sort compare" ~count:300
    (QCheck.make ~print:print_case order_stat_case)
    (fun (n, shape, seed) ->
      let a = shaped n shape seed in
      (* A sentinel tail shows that only the prefix moves. *)
      let buf = Array.append a [| max_int; min_int |] in
      Order_stat.sort_ints buf n;
      let want = Array.copy a in
      Array.sort compare want;
      Array.sub buf 0 n = want && buf.(n) = max_int && buf.(n + 1) = min_int)

let prop_order_stat_floats =
  QCheck.Test.make ~name:"order_stat floats equal Array.sort compare" ~count:300
    (QCheck.make ~print:print_case order_stat_case)
    (fun (n, shape, seed) ->
      let ints = shaped n shape seed in
      (* Quarter steps give exact ties; seeded NaNs and signed zeros
         check [compare]'s order on them. *)
      let a =
        Array.mapi
          (fun i x ->
            if shape = `Random && i mod 97 = 5 then Float.nan
            else if shape = `Dups && x = 0 then (if i land 1 = 0 then -0. else 0.)
            else float_of_int x /. 4.)
          ints
      in
      let got = Array.copy a in
      Order_stat.sort_floats got n;
      let want = Array.copy a in
      Array.sort compare want;
      compare got want = 0)

let test_order_stat_rank_index () =
  check_int "p50 of 4 is the 2nd smallest" 1 (Order_stat.rank_index ~n:4 0.5);
  check_int "p99 of 1000" 989 (Order_stat.rank_index ~n:1000 0.99);
  check_int "p100 clamps to the last" 999 (Order_stat.rank_index ~n:1000 1.0);
  check_int "p0 clamps to the first" 0 (Order_stat.rank_index ~n:1000 0.);
  check "a length beyond the array is rejected" true
    (try
       Order_stat.sort_ints [| 1 |] 2;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Memory model                                                        *)

let test_mem_latencies () =
  let m = Mem.create lnic in
  check_int "local read" 2 (Mem.access m Mem.Local ~mode:`Read ~addr:0);
  check_int "ctm read" 50 (Mem.access m Mem.Ctm ~mode:`Read ~addr:0);
  check_int "imem read" 250 (Mem.access m Mem.Imem ~mode:`Read ~addr:0);
  (* EMEM: first touch misses (500), second hits the cache (150). *)
  check_int "emem cold miss" 500 (Mem.access m Mem.Emem ~mode:`Read ~addr:4096);
  check_int "emem warm hit" 150 (Mem.access m Mem.Emem ~mode:`Read ~addr:4096);
  check_int "same line hit" 150 (Mem.access m Mem.Emem ~mode:`Read ~addr:4097);
  check_int "hits counted" 2 (Mem.emem_hits m);
  check_int "misses counted" 1 (Mem.emem_misses m)

let test_mem_cache_eviction () =
  let m = Mem.create lnic in
  (* Touch more lines than the 3MB cache holds, then the first line
     must miss again. *)
  let lines = (3 * 1024 * 1024 / 64) + 100 in
  for i = 0 to lines do
    ignore (Mem.access m Mem.Emem ~mode:`Read ~addr:(i * 64))
  done;
  check_int "first line evicted" 500 (Mem.access m Mem.Emem ~mode:`Read ~addr:0)

(* A strided run must charge as the same accesses made one by one:
   [access_run] on one model against single [access] calls on a second,
   under random interleavings of single accesses, runs (repeats too) and
   clears on a cache of a few lines. *)
type mem_op =
  | Access of [ `Read | `Write | `Atomic ] * int
  | Run of [ `Read | `Write | `Atomic ] * int * int * int  (* mode, base, stride, count *)
  | Again  (* the last run once more *)
  | Flush

let mode_name = function `Read -> "read" | `Write -> "write" | `Atomic -> "atomic"

let mem_op_print = function
  | Access (m, a) -> Printf.sprintf "%s %d" (mode_name m) a
  | Run (m, b, s, c) -> Printf.sprintf "run %s base %d stride %d count %d" (mode_name m) b s c
  | Again -> "again"
  | Flush -> "clear"

let small_cache_lnic lines =
  let memories =
    Array.map
      (fun (m : L.Memory.t) ->
        if m.L.Memory.level = L.Memory.External then
          { m with
            L.Memory.cache = Some { L.Memory.cache_bytes = lines * 64; hit_cycles = 150 } }
        else m)
      lnic.L.Graph.memories
  in
  L.Graph.update lnic ~memories

let mem_ops_gen =
  let open QCheck.Gen in
  int_range 1 12 >>= fun lines ->
  let mode = oneofl [ `Read; `Read; `Write; `Atomic ] in
  let addr = int_range 0 (4 * lines * 64) in
  let run =
    map
      (fun (m, b, s, c) -> Run (m, b, s, c))
      (quad mode (oneofl [ 0; 64; 100; 64 * lines ]) (oneofl [ 0; 8; 32; 64; 96; 128 ])
         (int_range 1 (2 * lines)))
  in
  let op =
    frequency
      [ (6, map2 (fun m a -> Access (m, a)) mode addr); (4, run); (6, return Again);
        (1, return Flush) ]
  in
  pair (return lines) (list_size (int_range 0 200) op)

let prop_access_run_matches_singles =
  QCheck.Test.make ~name:"access_run matches single accesses" ~count:300
    (QCheck.make
       ~print:(fun (lines, ops) ->
         Printf.sprintf "%d lines: %s" lines (String.concat "; " (List.map mem_op_print ops)))
       mem_ops_gen)
    (fun (lines, ops) ->
      let g = small_cache_lnic lines in
      let a = Mem.create g and b = Mem.create g in
      let last = ref None in
      let same ca cb =
        ca = cb
        && Mem.last_outcome a = Mem.last_outcome b
        && Mem.emem_hits a = Mem.emem_hits b
        && Mem.emem_misses a = Mem.emem_misses b
      in
      let run (mode, base, stride, count) =
        last := Some (mode, base, stride, count);
        let cb = ref 0 in
        for i = 0 to count - 1 do
          cb := !cb + Mem.access b Mem.Emem ~mode ~addr:(base + (i * stride))
        done;
        same (Mem.access_run a Mem.Emem ~mode ~base ~stride ~count) !cb
      in
      List.for_all
        (function
          | Access (mode, addr) ->
              same (Mem.access a Mem.Emem ~mode ~addr) (Mem.access b Mem.Emem ~mode ~addr)
          | Run (m, base, stride, count) -> run (m, base, stride, count)
          | Again -> ( match !last with Some r -> run r | None -> true)
          | Flush ->
              Mem.clear a;
              Mem.clear b;
              true)
        ops
      (* Every line must answer alike afterwards. *)
      && List.for_all
           (fun line ->
             same
               (Mem.access a Mem.Emem ~mode:`Read ~addr:(line * 64))
               (Mem.access b Mem.Emem ~mode:`Read ~addr:(line * 64)))
           (List.init (5 * lines) Fun.id))

(* ------------------------------------------------------------------ *)
(* Device                                                              *)

let pkt ?(proto = W.Packet.Tcp) ?(payload = 300) ?(flags = 0) () =
  { W.Packet.src_ip = 1l; dst_ip = 2l; src_port = 9; dst_port = 80; proto; flags;
    payload_bytes = payload; arrival_ns = 0L }

let fresh_ctx ?(tables = []) ?p () =
  let prog = { Dev.name = "t"; tables; handler = (fun _ _ -> Dev.Drop) } in
  let sim = Dev.create_sim lnic prog in
  Dev.make_ctx sim ~now:0 (Option.value ~default:(pkt ()) p)

let test_device_parse_costs () =
  let ctx = fresh_ctx () in
  Dev.parse_header ctx ~engine:false;
  check_int "software parse 150" 150 (Dev.now ctx);
  let ctx2 = fresh_ctx () in
  Dev.parse_header ctx2 ~engine:true;
  check "engine parse cheaper" true (Dev.now ctx2 < 150)

let test_device_checksum_contrast () =
  let p = pkt ~payload:946 () in (* total = 1000B *)
  let ctx = fresh_ctx ~p () in
  Dev.checksum ctx ~engine:true ~bytes:1000;
  check_int "engine checksum 300 @1000B" 300 (Dev.now ctx);
  let ctx2 = fresh_ctx ~p () in
  Dev.checksum ctx2 ~engine:false ~bytes:1000;
  check "software ~1700 more (§2.1)" true (Dev.now ctx2 - Dev.now ctx >= 1500)

let test_device_table_statefulness () =
  let tables =
    [ { Dev.t_name = "t"; t_entries = 1024; t_entry_bytes = 16; t_placement = Dev.P_ctm } ]
  in
  let prog = { Dev.name = "t"; tables; handler = (fun _ _ -> Dev.Drop) } in
  let sim = Dev.create_sim lnic prog in
  let ctx = Dev.make_ctx sim ~now:0 (pkt ()) in
  check "first lookup misses" false (Dev.table_lookup ctx "t" ~key:42);
  Dev.table_insert ctx "t" ~key:42;
  check "hit after insert" true (Dev.table_lookup ctx "t" ~key:42);
  check "other key still misses" false (Dev.table_lookup ctx "t" ~key:43)

let test_device_flow_cache_dynamics () =
  let tables =
    [ { Dev.t_name = "r"; t_entries = 10000; t_entry_bytes = 16;
        t_placement = Dev.P_flow_cache } ]
  in
  let prog = { Dev.name = "t"; tables; handler = (fun _ _ -> Dev.Drop) } in
  let sim = Dev.create_sim lnic prog in
  let ctx = Dev.make_ctx sim ~now:0 (pkt ()) in
  ignore (Dev.lpm_lookup ctx "r" ~key:7);
  let cold = Dev.now ctx in
  let ctx2 = Dev.make_ctx sim ~now:0 (pkt ()) in
  ignore (Dev.lpm_lookup ctx2 "r" ~key:7);
  let warm = Dev.now ctx2 in
  (* Cold miss walks the rules; warm hit is orders cheaper (§2.1). *)
  check "cold >> warm" true (cold > 50 * warm);
  check_int "one miss" 1 (Dev.flow_cache_misses sim);
  check_int "one hit" 1 (Dev.flow_cache_hits sim)

let test_device_lpm_placement_matters () =
  let walk placement =
    let tables =
      [ { Dev.t_name = "r"; t_entries = 8000; t_entry_bytes = 16; t_placement = placement } ]
    in
    let prog = { Dev.name = "t"; tables; handler = (fun _ _ -> Dev.Drop) } in
    let sim = Dev.create_sim lnic prog in
    let ctx = Dev.make_ctx sim ~now:0 (pkt ()) in
    ignore (Dev.lpm_lookup ctx "r" ~key:1);
    Dev.now ctx
  in
  check "ctm walk < imem walk" true (walk Dev.P_ctm < walk Dev.P_imem)

let test_device_accel_serialization () =
  (* Two back-to-back engine checksums from different contexts at the
     same start time: the second waits (head-of-line blocking). *)
  let prog = { Dev.name = "t"; tables = []; handler = (fun _ _ -> Dev.Drop) } in
  let sim = Dev.create_sim lnic prog in
  let a = Dev.make_ctx sim ~now:0 (pkt ~payload:946 ()) in
  Dev.checksum a ~engine:true ~bytes:1000;
  let b = Dev.make_ctx sim ~now:0 (pkt ~payload:946 ()) in
  Dev.checksum b ~engine:true ~bytes:1000;
  check_int "a finishes at 300" 300 (Dev.now a);
  check_int "b queued behind a" 600 (Dev.now b)

let test_device_errors () =
  check "unknown table" true
    (try
       let ctx = fresh_ctx () in
       ignore (Dev.table_lookup ctx "nope" ~key:1);
       false
     with Invalid_argument _ -> true);
  check "flow cache table requires lookup accel" true
    (let soc = L.Soc_nic.default in
     try
       ignore
         (Dev.create_sim soc
            { Dev.name = "t";
              tables =
                [ { Dev.t_name = "r"; t_entries = 8; t_entry_bytes = 16;
                    t_placement = Dev.P_flow_cache } ];
              handler = (fun _ _ -> Dev.Drop) });
       false
     with Invalid_argument _ -> true)

(* The simulator resolves its op and vcall costs into per-sim tables;
   every op must still cost exactly what the [Params] lookups say, on
   every target (netronome's cores emulate floating point in software). *)
(* A sim resolves each op class's cost at n = 1 and each table's costs
   at its entry count once; every resolved number must equal the float
   path it replaces, [round (n * op_cost)] and [Cost_fn.eval] rounded. *)
let test_device_resolved_costs () =
  let module P = L.Params in
  let reference f n =
    let v = L.Cost_fn.eval f (float_of_int n) in
    if v <= 0. then 0 else int_of_float (Float.round v)
  in
  let sizes = List.init 65 Fun.id in
  List.iter
    (fun (name, (g : L.Graph.t)) ->
      let params = g.L.Graph.params in
      let has_fpu =
        match L.Graph.general_cores g with
        | { L.Unit_.kind = L.Unit_.General_core { has_fpu; _ }; _ } :: _ -> has_fpu
        | _ -> false
      in
      let fc =
        if L.Graph.find_accelerator g L.Unit_.Eswitch <> None then Some L.Unit_.Eswitch
        else if L.Graph.find_accelerator g L.Unit_.Lookup <> None then Some L.Unit_.Lookup
        else None
      in
      let placement = if fc = None then Dev.P_emem else Dev.P_flow_cache in
      let tables =
        List.map
          (fun n ->
            { Dev.t_name = Printf.sprintf "t%d" n; t_entries = n; t_entry_bytes = 16;
              t_placement = placement })
          sizes
      in
      let prog = { Dev.name = "costs"; tables; handler = (fun _ _ -> Dev.Drop) } in
      let sim = Dev.create_sim g prog in
      List.iter
        (fun cls ->
          List.iter
            (fun n ->
              let label = Printf.sprintf "%s op %d x%d" name (Hashtbl.hash cls) n in
              match P.op_cost params cls ~has_fpu with
              | c ->
                  check_int label
                    (int_of_float (Float.round (float_of_int n *. c)))
                    (Dev.op_cycles sim cls n)
              | exception Not_found ->
                  check label true
                    (try
                       ignore (Dev.op_cycles sim cls n);
                       false
                     with Not_found -> true))
            sizes)
        P.all_op_classes;
      List.iter
        (fun n ->
          let t = Printf.sprintf "t%d" n in
          List.iter
            (fun vc ->
              check_int
                (Printf.sprintf "%s %s vcall %d" name t (Hashtbl.hash vc))
                (match P.core_vcall_cost params vc with
                | Some f -> reference f n
                | None -> -1)
                (Dev.table_cycles sim t vc))
            P.all_vcalls;
          (* The flow-cache engine's LPM charge, seen as the accelerator
             time one lookup on a fresh sim books. *)
          Option.iter
            (fun kind ->
              let sim = Dev.create_sim g prog in
              let ctx = Dev.make_ctx sim ~now:0 (pkt ()) in
              ignore (Dev.lpm_lookup ctx t ~key:7);
              check_int (Printf.sprintf "%s %s flow-cache lpm" name t)
                (reference (Option.get (P.accel_vcall_cost params kind P.V_lpm_lookup)) n)
                (Dev.accel_busy_cycles sim))
            fc)
        sizes)
    L.Targets.all

(* The untraced event path allocates one context record per packet and
   little else: no closures, option boxes or boxed floats per packet. *)
let test_event_path_allocation () =
  let null = { Dev.name = "null"; tables = []; handler = (fun _ _ -> Dev.Emit) } in
  let packets = 2000 in
  let trace =
    W.Trace.synthesize ~seed:5L (W.Profile.make ~packets ~rate_pps:1e6 ~flow_count:500 ())
  in
  List.iter
    (fun t ->
      let g = Option.get (L.Targets.find t) in
      ignore (Eng.run g null trace);
      let before = Gc.minor_words () in
      ignore (Eng.run g null trace);
      let per_packet = (Gc.minor_words () -. before) /. float_of_int packets in
      check
        (Printf.sprintf "%s: %.1f minor words per packet, at most 16" t per_packet)
        true (per_packet <= 16.))
    [ "netronome"; "soc"; "bluefield" ]

(* The device's tables grow their LRUs in minor-heap pages: a nat run
   on netronome allocates no more major-heap words than a table-less
   program's run on the same trace (the engine's own per-run blocks). *)
let test_table_growth_minor_only () =
  let g = L.Netronome.default in
  let packets = 1000 in
  let trace =
    W.Trace.synthesize ~seed:1L
      (W.Profile.make ~tcp_fraction:0.8 ~flow_count:(4 * packets)
         ~payload:(W.Dist.Bimodal (64, 1200, 0.6))
         ~rate_pps:1e6 ~packets ~new_flow_syn:true ())
  in
  let null = { Dev.name = "null"; tables = []; handler = (fun _ _ -> Dev.Emit) } in
  let run prog = Fixtures.direct_major_words (fun () -> ignore (Eng.run g prog trace)) in
  ignore (run null);
  let base = run null in
  let nat = run (Clara_nfs.Nat.ported ~checksum_engine:true ()) in
  check (Printf.sprintf "nat %.0f direct major words, table-less %.0f" nat base) true (nat = base)

(* A saturated ingress queue keeps more than 256 packets in flight: the
   in-flight heap spills into minor-heap pages, so dpi and vnf-chain on
   every benchmarked target, and lpm on netronome, allocate no more
   major-heap words than a table-less program's run on the same target
   and trace. *)
let test_inflight_growth_minor_only () =
  let packets = 1000 in
  let trace =
    W.Trace.synthesize ~seed:1L
      (W.Profile.make ~tcp_fraction:0.8 ~flow_count:(4 * packets)
         ~payload:(W.Dist.Bimodal (64, 1200, 0.6))
         ~rate_pps:1e6 ~packets ~new_flow_syn:true ())
  in
  let null = { Dev.name = "null"; tables = []; handler = (fun _ _ -> Dev.Emit) } in
  List.iter
    (fun (target, nfs) ->
      let g = Option.get (L.Targets.find target) in
      let run prog = Fixtures.direct_major_words (fun () -> ignore (Eng.run g prog trace)) in
      ignore (run null);
      let base = run null in
      List.iter
        (fun nf ->
          let w = run (Option.get (Clara_nfs.Corpus.find nf)).Clara_nfs.Corpus.ported in
          check
            (Printf.sprintf "%s on %s: %.0f direct major words, table-less %.0f" nf target w base)
            true (w = base))
        nfs)
    [ ("netronome", [ "dpi"; "vnf-chain"; "lpm" ]);
      ("soc", [ "dpi"; "vnf-chain" ]);
      ("bluefield", [ "dpi"; "vnf-chain" ]) ]

(* An operation the target cannot run raises the typed error, naming
   the unit and the op, from a plain run and from a sharded one. *)
let test_device_unrunnable () =
  let trace = W.Trace.synthesize ~seed:3L (W.Profile.make ~packets:50 ~flow_count:20 ()) in
  let find t = Option.get (L.Targets.find t) in
  List.iter
    (fun (nf, target, unit_, op) ->
      let what = Printf.sprintf "%s on %s" nf target in
      let prog = (Result.get_ok (Clara_nfs.Corpus.resolve nf)).Clara_nfs.Corpus.ported in
      List.iter
        (fun (mode, run) ->
          match run () with
          | _ -> Alcotest.failf "%s (%s) ran" what mode
          | exception Dev.Unrunnable u ->
              Alcotest.(check (pair string string))
                (Printf.sprintf "%s (%s): unit and op" what mode) (unit_, op) (u.unit_, u.op))
        [ ("run", fun () -> Eng.run (find target) prog trace);
          ("sharded", fun () -> Eng.run_sharded ~domains:2 ~shards:2 (find target) prog trace) ])
    [ ("dpi", "asic", "cores", "payload_scan");
      ("nat", "asic", "checksum accelerator", "checksum");
      ("nat", "host", "checksum accelerator", "checksum") ];
  check "the message names both" true
    (Printexc.to_string (Dev.Unrunnable { unit_ = "cores"; op = "meter" })
    = "Device: the cores cannot run meter")

let test_device_check () =
  let lpm = Clara_nfs.Lpm.ported ~entries:64 ~use_flow_cache:true () in
  let find t = Option.get (L.Targets.find t) in
  (match Dev.check (find "soc") [ lpm ] with
  | Ok () -> Alcotest.fail "lpm's flow-cache table accepted on soc"
  | Error m ->
      check "the error names the table" true
        (String.length m > 0 && Option.is_some (String.index_opt m '\'')));
  check "lpm is hostable on bluefield" true (Dev.check (find "bluefield") [ lpm ] = Ok ());
  check "a duplicate table name is refused" true
    (Result.is_error (Dev.check (find "bluefield") [ lpm; lpm ]))

let test_device_cost_tables () =
  let module P = L.Params in
  List.iter
    (fun (name, (g : L.Graph.t)) ->
      let params = g.L.Graph.params in
      let has_fpu =
        match L.Graph.general_cores g with
        | { L.Unit_.kind = L.Unit_.General_core { has_fpu; _ }; _ } :: _ -> has_fpu
        | _ -> false
      in
      let prog = { Dev.name = "t"; tables = []; handler = (fun _ _ -> Dev.Drop) } in
      let fresh () = Dev.make_ctx (Dev.create_sim g prog) ~now:0 (pkt ()) in
      let round_cycles x = int_of_float (Float.round x) in
      let cost cls = P.op_cost params cls ~has_fpu in
      (* A counted op rounds n x cost once; [branch]/[hash_op] are single
         ops, so n calls round each one. *)
      let counted op cls = (op, fun n -> round_cycles (float_of_int n *. cost cls)) in
      let single op cls =
        ((fun ctx n -> for _ = 1 to n do op ctx done), fun n -> n * round_cycles (cost cls))
      in
      List.iter
        (fun (label, (op, expect)) ->
          List.iter
            (fun n ->
              let ctx = fresh () in
              op ctx n;
              check_int (Printf.sprintf "%s %s x%d" name label n) (expect n) (Dev.now ctx))
            [ 1; 3; 17 ])
        [ ("alu", counted Dev.alu P.Alu); ("mul", counted Dev.mul P.Mul);
          ("move", counted Dev.move P.Move); ("fp", counted Dev.fp_op P.Fp);
          ("branch", single Dev.branch P.Branch); ("hash", single Dev.hash_op P.Hash) ];
      let hb = W.Packet.header_bytes (pkt ()) in
      let core = Option.get (P.core_vcall_cost params P.V_parse_header) in
      let ctx = fresh () in
      Dev.parse_header ctx ~engine:false;
      check_int (name ^ " core parse") (L.Cost_fn.eval_int core hb) (Dev.now ctx);
      (* The engine: the parser, else the flow-cache front end, when it
         can parse at all; otherwise the cores. *)
      let has k = L.Graph.find_accelerator g k <> None in
      let kind =
        if has L.Unit_.Parse then L.Unit_.Parse
        else if has L.Unit_.Eswitch then L.Unit_.Eswitch
        else L.Unit_.Lookup
      in
      let engine_fn =
        if has kind then P.accel_vcall_cost params kind P.V_parse_header else None
      in
      let ctx = fresh () in
      Dev.parse_header ctx ~engine:true;
      check_int (name ^ " engine parse")
        (L.Cost_fn.eval_int (Option.value ~default:core engine_fn) hb)
        (Dev.now ctx))
    L.Targets.all

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let simple_prog ?(cost_ops = 10) () =
  { Dev.name = "noop";
    tables = [];
    handler =
      (fun ctx _ ->
        Dev.alu ctx cost_ops;
        Dev.Emit) }

let trace ?(tcp = 0.8) ~packets ~rate () =
  W.Trace.synthesize ~seed:5L
    (W.Profile.make ~packets ~rate_pps:rate ~flow_count:100 ~tcp_fraction:tcp
       ~payload:(W.Dist.Fixed 300) ())

let test_engine_accounting () =
  let tr = trace ~packets:1000 ~rate:60_000. () in
  let r = Eng.run lnic (simple_prog ()) tr in
  check_int "all packets accounted" 1000
    (r.Eng.summary.Stats.packets + r.Eng.summary.Stats.drops);
  check "no drops at low load" true (r.Eng.summary.Stats.drops = 0);
  check "latency positive" true (r.Eng.summary.Stats.mean_cycles > 0.);
  check "p99 >= p50" true (r.Eng.summary.Stats.p99_cycles >= r.Eng.summary.Stats.p50_cycles)

let test_engine_latency_composition () =
  (* At negligible load, latency = wire rx + hub + ops + wire tx + hub. *)
  let tr = trace ~tcp:1.0 ~packets:50 ~rate:1_000. () in
  let r = Eng.run lnic (simple_prog ~cost_ops:0 ()) tr in
  (* 354B packet: rx = 900 + 2*354 + 20; tx same. *)
  let expect = 2. *. (900. +. (2. *. 354.) +. 20.) in
  check "uncontended latency = wire costs" true
    (abs_float (r.Eng.summary.Stats.mean_cycles -. expect) < 2.)

let test_engine_saturation () =
  (* A handler costing ~1M cycles at 60kpps on 480 threads saturates:
     latency inflates and/or drops appear. *)
  let slow =
    { Dev.name = "slow";
      tables = [];
      handler =
        (fun ctx _ ->
          Dev.alu ctx 2_000_000;
          Dev.Emit) }
  in
  let tr = trace ~packets:5_000 ~rate:400_000. () in
  let r = Eng.run lnic slow tr in
  let tr_slow = trace ~packets:5_000 ~rate:1_000. () in
  let r_easy = Eng.run lnic slow tr_slow in
  check "overload inflates latency or drops" true
    (r.Eng.summary.Stats.drops > 0
    || r.Eng.summary.Stats.mean_cycles > 2. *. r_easy.Eng.summary.Stats.mean_cycles)

let test_engine_deterministic () =
  let tr = trace ~packets:500 ~rate:60_000. () in
  let r1 = Eng.run lnic (Clara_nfs.Nat.ported ~checksum_engine:true ()) tr in
  let r2 = Eng.run lnic (Clara_nfs.Nat.ported ~checksum_engine:true ()) tr in
  check "same trace, same result" true
    (r1.Eng.summary.Stats.mean_cycles = r2.Eng.summary.Stats.mean_cycles)

(* ------------------------------------------------------------------ *)
(* NF corpus sanity                                                    *)

let test_nfs_run () =
  let tr = trace ~packets:2000 ~rate:60_000. () in
  let progs =
    [ Clara_nfs.Nat.ported ~checksum_engine:true ();
      Clara_nfs.Nat.ported ~checksum_engine:false ();
      Clara_nfs.Lpm.ported ~entries:5000 ~use_flow_cache:true ();
      Clara_nfs.Lpm.ported ~entries:5000 ~use_flow_cache:false ();
      Clara_nfs.Firewall.ported ~placement:Dev.P_ctm ();
      Clara_nfs.Firewall.ported ~placement:Dev.P_emem ();
      Clara_nfs.Dpi.ported ();
      Clara_nfs.Heavy_hitter.ported ();
      Clara_nfs.Vnf_chain.ported () ]
  in
  List.iter
    (fun prog ->
      let r = Eng.run lnic prog tr in
      check (prog.Dev.name ^ " processes packets") true
        (r.Eng.summary.Stats.packets > 0);
      check (prog.Dev.name ^ " positive latency") true
        (r.Eng.summary.Stats.mean_cycles > 0.))
    progs

let test_nat_variant_contrast () =
  (* Figure 1: the software-checksum NAT variant is measurably slower. *)
  let tr = trace ~packets:3000 ~rate:60_000. () in
  let fast = Eng.run lnic (Clara_nfs.Nat.ported ~checksum_engine:true ()) tr in
  let slow = Eng.run lnic (Clara_nfs.Nat.ported ~checksum_engine:false ()) tr in
  check "sw checksum slower" true
    (slow.Eng.summary.Stats.mean_cycles > fast.Eng.summary.Stats.mean_cycles +. 500.)

let test_lpm_variant_contrast () =
  (* Figure 1 / §2.1: flow-cache hits are orders of magnitude cheaper than
     the software walk (the per-hit contrast is in the device tests); at
     the workload level the mean ratio is diluted by cold misses, which
     pay the full walk before populating the cache. *)
  let tr = trace ~packets:8000 ~rate:60_000. () in
  let fc = Eng.run lnic (Clara_nfs.Lpm.ported ~entries:20000 ~use_flow_cache:true ()) tr in
  let sw = Eng.run lnic (Clara_nfs.Lpm.ported ~entries:20000 ~use_flow_cache:false ()) tr in
  check "flow cache >5x faster on average" true
    (sw.Eng.summary.Stats.mean_cycles > 5. *. fc.Eng.summary.Stats.mean_cycles);
  check "flow cache hit rate high" true (fc.Eng.flow_cache_hit_rate > 0.9)

let test_engine_thread_parameter () =
  (* One thread at a meaningful rate: queueing (and possibly drops) must
     appear relative to the full thread pool. *)
  let tr = trace ~packets:2000 ~rate:200_000. () in
  let prog = Clara_nfs.Nat.ported ~checksum_engine:true () in
  let wide = Eng.run lnic prog tr in
  let narrow = Eng.run ~threads:1 lnic prog tr in
  check "narrow pool slower or dropping" true
    (narrow.Eng.summary.Stats.mean_cycles > wide.Eng.summary.Stats.mean_cycles
    || narrow.Eng.summary.Stats.drops > wide.Eng.summary.Stats.drops)

let test_pair_coresidency () =
  let prog_a = Clara_nfs.Firewall.ported ~entries:1_000_000 ~placement:Dev.P_emem () in
  let prog_b = Clara_nfs.Kv_store.ported ~placement:Dev.P_emem () in
  let prof rate seed =
    W.Trace.synthesize ~seed
      (W.Profile.make ~packets:4000 ~rate_pps:rate ~flow_count:2000
         ~payload:(W.Dist.Fixed 300) ())
  in
  let tr_a = prof 400_000. 31L and tr_b = prof 400_000. 57L in
  let solo_a = Eng.run lnic prog_a tr_a in
  let co = Eng.run_tenants lnic [| prog_a; prog_b |] [| tr_a; tr_b |] in
  let co_a = co.(0) and co_b = co.(1) in
  check "both sides processed" true
    (co_a.Eng.summary.Stats.packets > 0 && co_b.Eng.summary.Stats.packets > 0);
  (* Sharing the EMEM cache and DMA lanes can only hurt. *)
  check "co-residency does not speed things up" true
    (co_a.Eng.summary.Stats.mean_cycles >= solo_a.Eng.summary.Stats.mean_cycles -. 50.);
  (* Table name clash rejected. *)
  check "table clash rejected" true
    (try
       ignore (Dev.create_sim_shared lnic [ prog_a; prog_a ]);
       false
     with Invalid_argument _ -> true)

let test_engine_out_of_order_retirement () =
  (* Regression: the in-flight window used to retire in FIFO order, so
     every packet that finished early stayed "queued" behind one slow
     packet and the engine fired spurious drops.  One pathological
     packet on one of three threads must not drop anything at a rate
     the other two threads absorb easily. *)
  let first = ref true in
  let prog =
    { Dev.name = "one-slow";
      tables = [];
      handler =
        (fun ctx _ ->
          if !first then begin
            first := false;
            Dev.alu ctx 200_000_000
          end
          else Dev.alu ctx 10;
          Dev.Emit) }
  in
  let tr = trace ~packets:2000 ~rate:100_000. () in
  let r = Eng.run ~threads:3 lnic prog tr in
  check "no spurious drops behind one slow packet" true
    (r.Eng.summary.Stats.drops = 0);
  check_int "everything processed" 2000 r.Eng.summary.Stats.packets

let test_pair_capacity_clamp () =
  (* Regression: two equal-weight tenants halve the ingress queue; a
     capacity-1 hub used to round down to zero and drop any packet that
     found the thread busy. *)
  let hubs =
    Array.map
      (fun (h : L.Hub.t) ->
        if h.L.Hub.kind = `Ingress then { h with L.Hub.queue_capacity = 1 } else h)
      lnic.L.Graph.hubs
  in
  let tiny = L.Graph.update lnic ~hubs in
  let mk arrival_ns =
    { W.Packet.src_ip = 1l; dst_ip = 2l; src_port = 1; dst_port = 2;
      proto = W.Packet.Udp; flags = 0; payload_bytes = 64; arrival_ns }
  in
  let tr_a = W.Trace.of_packets [| mk 0L; mk 10L |] in
  let tr_b = W.Trace.of_packets [||] in
  let prog_b = { (simple_prog ()) with Dev.name = "noop-b" } in
  let rs = Eng.run_tenants ~threads:2 tiny [| simple_prog (); prog_b |] [| tr_a; tr_b |] in
  let ra = rs.(0) in
  check_int "both packets accepted" 2 ra.Eng.summary.Stats.packets;
  check "no drops with clamped half-queue" true (ra.Eng.summary.Stats.drops = 0)

let test_firewall_placement_contrast () =
  let tr = trace ~packets:3000 ~rate:60_000. () in
  let ctm = Eng.run lnic (Clara_nfs.Firewall.ported ~entries:4096 ~placement:Dev.P_ctm ()) tr in
  let emem = Eng.run lnic (Clara_nfs.Firewall.ported ~entries:4096 ~placement:Dev.P_emem ()) tr in
  check "CTM state faster than EMEM" true
    (ctm.Eng.summary.Stats.mean_cycles < emem.Eng.summary.Stats.mean_cycles)

(* ------------------------------------------------------------------ *)
(* Steady-state fast path + domain-parallel sharding                   *)

(* Full structural equality of everything a result reports except the
   fast-path counters themselves. *)
let same_result (a : Eng.result) (b : Eng.result) =
  compare a.Eng.summary b.Eng.summary = 0
  && compare a.Eng.emem_hit_rate b.Eng.emem_hit_rate = 0
  && compare a.Eng.flow_cache_hit_rate b.Eng.flow_cache_hit_rate = 0
  && a.Eng.freq_mhz = b.Eng.freq_mhz

(* A stateless-but-nontrivial handler: accelerators, DMA, flat memory,
   packet-dependent branching — everything the recorder must capture —
   and no mutable simulator state. *)
let stateless_prog () =
  { Dev.name = "stateless";
    tables = [];
    handler =
      (fun ctx pkt ->
        Dev.parse_header ctx ~engine:true;
        Dev.alu ctx 40;
        Dev.checksum ctx ~engine:true ~bytes:(W.Packet.total_bytes pkt);
        Dev.local_read ctx 2;
        Dev.branch ctx;
        if W.Packet.is_syn pkt then Dev.alu ctx 25;
        Dev.Emit) }

let test_fastpath_stateless_identity () =
  (* Byte-identity: the fast path must reproduce the event path exactly
     on a stateless NF, at a rate high enough for queueing/contention to
     matter. *)
  let tr = trace ~packets:4000 ~rate:400_000. () in
  let slow = Eng.run lnic (stateless_prog ()) tr in
  let fast = Eng.run ~fast:(Eng.Auto { warmup = 100 }) lnic (stateless_prog ()) tr in
  check "summaries byte-identical" true (same_result slow fast);
  check "fast path actually replayed" true (fast.Eng.fast.Clara_nicsim.Fastpath.replayed > 0);
  check "event path never replays" true (slow.Eng.fast.Clara_nicsim.Fastpath.replayed = 0);
  (* The DPI port is the corpus's stateless NF; same identity must hold. *)
  let slow_d = Eng.run lnic (Clara_nfs.Dpi.ported ()) tr in
  let fast_d = Eng.run ~fast:(Eng.Auto { warmup = 100 }) lnic (Clara_nfs.Dpi.ported ()) tr in
  check "dpi byte-identical" true (same_result slow_d fast_d);
  check "dpi replayed" true (fast_d.Eng.fast.Clara_nicsim.Fastpath.replayed > 0)

let test_fastpath_stateful_fallback () =
  (* Stateful NFs (tables, flow cache, EMEM) must poison every key and
     never replay — and still produce identical results. *)
  let tr = trace ~packets:3000 ~rate:60_000. () in
  List.iter
    (fun prog ->
      let slow = Eng.run lnic prog tr in
      let fast = Eng.run ~fast:(Eng.Auto { warmup = 10 }) lnic prog tr in
      check (prog.Dev.name ^ " stateful: nothing replayed") true
        (fast.Eng.fast.Clara_nicsim.Fastpath.replayed = 0);
      check (prog.Dev.name ^ " stateful: results unchanged") true
        (same_result slow fast))
    [ Clara_nfs.Nat.ported ~checksum_engine:true ();
      Clara_nfs.Firewall.ported ~placement:Dev.P_emem () ]

let test_fastpath_closure_state_poisoned () =
  (* Handler statefulness the Device layer cannot see: an OCaml closure
     over a ref whose cost alternates per call.  With a single repeated
     packet, the key's first two sightings disagree, so two-sighting
     confirmation must poison it — nothing replays and results stay
     identical to the event path.  (A closure that behaves consistently
     twice and diverges later is undetectable dynamically; that is why
     [Auto] is opt-in and the CLI gates it on the static sharing
     verdict.) *)
  let mk () =
    let n = ref 0 in
    { Dev.name = "closure";
      tables = [];
      handler =
        (fun ctx _ ->
          incr n;
          Dev.alu ctx (if !n mod 2 = 0 then 40 else 20);
          Dev.Emit) }
  in
  let one = pkt ~proto:W.Packet.Udp ~payload:64 () in
  let tr =
    W.Trace.of_packets
      (Array.init 200 (fun i ->
           { one with W.Packet.arrival_ns = Int64.of_int (i * 100_000) }))
  in
  let slow = Eng.run lnic (mk ()) tr in
  let fast = Eng.run ~fast:(Eng.Auto { warmup = 0 }) lnic (mk ()) tr in
  check "closure key poisoned, nothing replayed" true
    (fast.Eng.fast.Clara_nicsim.Fastpath.replayed = 0);
  check "closure-stateful results unchanged" true (same_result slow fast)

let test_fastpath_warmup_boundary () =
  (* Replay is gated on seq >= warmup.  warmup = n must behave exactly
     like the event path (no packet ever reaches the gate); warmup = 0
     replays as soon as a key is confirmed (from the 3rd sighting on). *)
  let one = pkt ~proto:W.Packet.Udp ~payload:64 () in
  let packets = Array.init 10 (fun i -> { one with W.Packet.arrival_ns = Int64.of_int (i * 1_000_000) }) in
  let tr = W.Trace.of_packets packets in
  let r_all = Eng.run ~fast:(Eng.Auto { warmup = 10 }) lnic (stateless_prog ()) tr in
  check "warmup = n never replays" true
    (r_all.Eng.fast.Clara_nicsim.Fastpath.replayed = 0);
  let r_zero = Eng.run ~fast:(Eng.Auto { warmup = 0 }) lnic (stateless_prog ()) tr in
  (* 10 identical packets: sightings 1-2 record+confirm, 3-10 replay. *)
  check_int "warmup = 0 replays after confirmation" 8
    r_zero.Eng.fast.Clara_nicsim.Fastpath.replayed;
  let r_three = Eng.run ~fast:(Eng.Auto { warmup = 3 }) lnic (stateless_prog ()) tr in
  (* seq 0,1 confirm; seq 2 is confirmed but below the gate; 3-9 replay. *)
  check_int "warmup = 3 gates exactly seqs 0-2" 7
    r_three.Eng.fast.Clara_nicsim.Fastpath.replayed;
  check "warmup boundary results identical" true
    (same_result r_all r_zero && same_result r_all r_three)

let test_pair_tie_determinism () =
  (* Regression: the co-run merge sorted on arrival alone with an
     unstable sort, so packets from A and B with colliding timestamps
     interleaved unpredictably.  With many equal-time packets, repeated
     runs must agree exactly, and A must sort before B at equal time
     (observable via the shared-accelerator contention they generate). *)
  let mk side i =
    { W.Packet.src_ip = Int32.of_int (side * 1000 + i); dst_ip = 2l;
      src_port = 1; dst_port = 2; proto = W.Packet.Udp; flags = 0;
      payload_bytes = 64 + (7 * i mod 100);
      arrival_ns = Int64.of_int (i / 4 * 1000) (* 4-way timestamp collisions *) }
  in
  let tr_a = W.Trace.of_packets (Array.init 400 (mk 1)) in
  let tr_b = W.Trace.of_packets (Array.init 400 (mk 2)) in
  let busy name =
    { Dev.name;
      tables = [];
      handler =
        (fun ctx pkt ->
          Dev.checksum ctx ~engine:true ~bytes:(W.Packet.total_bytes pkt);
          Dev.Emit) }
  in
  let run () = Eng.run_tenants lnic [| busy "a"; busy "b" |] [| tr_a; tr_b |] in
  let run1 = run () and run2 = run () in
  check "pair run deterministic (side a)" true (same_result run1.(0) run2.(0));
  check "pair run deterministic (side b)" true (same_result run1.(1) run2.(1))

let test_pair_per_side_hit_rates () =
  (* Regression: both sides used to report the shared sim's combined
     emem/flow-cache ratios, so A and B were always identical.  Give A a
     cache-friendly one-flow EMEM workload and B a cache-hostile scan;
     their reported rates must now differ, and each side's rate must
     come from its own counters. *)
  let mk_a i =
    { W.Packet.src_ip = 1l; dst_ip = 2l; src_port = 1; dst_port = 2;
      proto = W.Packet.Udp; flags = 0; payload_bytes = 64;
      arrival_ns = Int64.of_int (i * 100_000) }
  in
  let mk_b i =
    { W.Packet.src_ip = Int32.of_int (100_000 + (i * 7919)); dst_ip = 3l;
      src_port = 5; dst_port = 6; proto = W.Packet.Udp; flags = 0;
      payload_bytes = 64; arrival_ns = Int64.of_int (50_000 + (i * 100_000)) }
  in
  let table name =
    [ { Dev.t_name = name; t_entries = 1 lsl 16; t_entry_bytes = 64;
        t_placement = Dev.P_emem } ]
  in
  (* A hammers one key (EMEM hits after the first touch); B strides its
     unique flow key across the table (mostly misses). *)
  let prog_a =
    { Dev.name = "hot";
      tables = table "ta";
      handler = (fun ctx _ -> ignore (Dev.table_lookup ctx "ta" ~key:1); Dev.Emit) }
  in
  let prog_b =
    { Dev.name = "cold";
      tables = table "tb";
      handler =
        (fun ctx pkt ->
          ignore (Dev.table_lookup ctx "tb" ~key:(W.Packet.flow_key pkt));
          Dev.Emit) }
  in
  let tr_a = W.Trace.of_packets (Array.init 400 mk_a) in
  let tr_b = W.Trace.of_packets (Array.init 400 mk_b) in
  let rs = Eng.run_tenants lnic [| prog_a; prog_b |] [| tr_a; tr_b |] in
  let ra = rs.(0) and rb = rs.(1) in
  check "side A hit rate high" true (ra.Eng.emem_hit_rate > 0.9);
  check "side B hit rate lower" true (rb.Eng.emem_hit_rate < ra.Eng.emem_hit_rate -. 0.2)

let test_run_sharded_domain_determinism () =
  (* Pool determinism: for a fixed shard count the merged result must be
     byte-identical whether the shards run on 1 domain or several. *)
  let tr = trace ~packets:3000 ~rate:200_000. () in
  let prog () = Clara_nfs.Dpi.ported () in
  let r1 = Eng.run_sharded ~domains:1 ~shards:4 lnic (prog ()) tr in
  let r4 = Eng.run_sharded ~domains:4 ~shards:4 lnic (prog ()) tr in
  check "1 vs N domains byte-identical" true (same_result r1 r4);
  check_int "all packets accounted" 3000
    (r1.Eng.summary.Stats.packets + r1.Eng.summary.Stats.drops);
  (* Repeatable too. *)
  let r4' = Eng.run_sharded ~domains:4 ~shards:4 lnic (prog ()) tr in
  check "repeated sharded run identical" true (same_result r4 r4')

(* Heavy-hitter's per-bucket counts live in the simulator, so shards and
   runs never share them.  Four flows over 6000 packets push every bucket
   past the 1000-packet threshold, so the counts decide verdicts. *)
let test_heavy_hitter_counts_per_sim () =
  let module HH = Clara_nfs.Heavy_hitter in
  let tr =
    W.Trace.synthesize ~seed:5L
      (W.Profile.make ~packets:6000 ~rate_pps:200_000. ~flow_count:4 ~tcp_fraction:0.8
         ~payload:(W.Dist.Fixed 300) ())
  in
  let json r = Clara_util.Json.to_string ~pretty:false (Eng.result_to_json r) in
  let sharded domains = json (Eng.run_sharded ~domains ~shards:2 lnic (HH.ported ()) tr) in
  Alcotest.(check string) "sharded: 1 vs 2 domains" (sharded 1) (sharded 2);
  let port = HH.ported () in
  let first = json (Eng.run lnic port tr) in
  Alcotest.(check string) "rerun of one port value" first (json (Eng.run lnic port tr));
  (* Pinned from the closure-counter implementation's fresh-port run. *)
  Alcotest.(check string) "fresh port unchanged"
    ({|{"packets":6000,"drops":0,"mean_cycles":2783.092,"p50_cycles":3423,|}
     ^ {|"p99_cycles":3471,"max_cycles":3786,"tcp_mean_cycles":2568.054318788958,|}
     ^ {|"udp_mean_cycles":3423.6419098143238,"syn_mean_cycles":3471,|}
     ^ {|"emem_hit_rate":null,"flow_cache_hit_rate":null,"freq_mhz":800,|}
     ^ {|"fast_replayed":0,"fast_executed":0,"fast_confirmed":0,"fast_poisoned":0,|}
     ^ {|"fast_enabled":false}|})
    first

(* ------------------------------------------------------------------ *)
(* N-tenant WRR scheduling                                             *)

module Sch = Clara_nicsim.Scheduler

let test_scheduler_split_conserves () =
  (* Regression: pair and sharded runs used floor division, losing up to
     shards-1 threads (480/7 dropped 4). *)
  let seven = Sch.split ~total:480 ~weights:(Array.make 7 1) in
  check_int "480/7 sums to 480" 480 (Array.fold_left ( + ) 0 seven);
  check "remainder to lower indices" true
    (seven = [| 69; 69; 69; 69; 68; 68; 68 |]);
  (* Weighted: floors 8,1 of 10*5/6,10*1/6; remainder unit to index 0. *)
  check "weighted split" true (Sch.split ~total:10 ~weights:[| 5; 1 |] = [| 9; 1 |]);
  (* Pool too small to conserve: clamp every tenant to 1. *)
  check "min-1 clamp" true (Sch.split ~total:1 ~weights:[| 1; 1 |] = [| 1; 1 |]);
  check "clamp under heavy skew" true
    (Array.for_all (fun p -> p >= 1) (Sch.split ~total:12 ~weights:[| 100; 1; 1 |]));
  check_int "skewed split still conserves" 12
    (Array.fold_left ( + ) 0 (Sch.split ~total:12 ~weights:[| 100; 1; 1 |]))

let test_scheduler_wrr_order () =
  (* Two-stage WRR, weights 2:1 — the granted tenant drains up to its
     credit, then the grant rotates; credits replenish only when every
     backlogged tenant is spent. *)
  let s = Sch.create ~weights:[| 2; 1 |] in
  List.iter (fun x -> Sch.enqueue s ~tenant:0 x) [ "a1"; "a2"; "a3"; "a4" ];
  List.iter (fun x -> Sch.enqueue s ~tenant:1 x) [ "b1"; "b2" ];
  let order = ref [] in
  Sch.drain s (fun t x -> order := (t, x) :: !order);
  check "wrr order" true
    (List.rev !order
    = [ (0, "a1"); (0, "a2"); (1, "b1"); (0, "a3"); (0, "a4"); (1, "b2") ]);
  check "empty after drain" true (Sch.is_empty s)

let test_run_tenants_deterministic () =
  (* WRR scheduling must be reproducible even with 4-way timestamp
     collisions across three tenants. *)
  let mk_tr side =
    W.Trace.of_packets
      (Array.init 300 (fun i ->
           { W.Packet.src_ip = Int32.of_int ((side * 1000) + i); dst_ip = 2l;
             src_port = 1; dst_port = 2; proto = W.Packet.Udp; flags = 0;
             payload_bytes = 64 + (7 * i mod 100);
             arrival_ns = Int64.of_int (i / 4 * 1000) }))
  in
  let busy name =
    { Dev.name;
      tables = [];
      handler =
        (fun ctx pkt ->
          Dev.checksum ctx ~engine:true ~bytes:(W.Packet.total_bytes pkt);
          Dev.Emit) }
  in
  let progs () = [| busy "a"; busy "b"; busy "c" |] in
  let traces = [| mk_tr 1; mk_tr 2; mk_tr 3 |] in
  let weights = [| 3; 2; 1 |] in
  let r1 = Eng.run_tenants ~weights lnic (progs ()) traces in
  let r2 = Eng.run_tenants ~weights lnic (progs ()) traces in
  Array.iteri
    (fun i r -> check (Printf.sprintf "tenant %d deterministic" i) true
        (same_result r r2.(i)))
    r1;
  check_int "all packets accounted" 900
    (Array.fold_left
       (fun a (r : Eng.result) ->
         a + r.Eng.summary.Stats.packets + r.Eng.summary.Stats.drops)
       0 r1)

let test_run_tenants_starved_tenant () =
  (* Fairness: three copies of an expensive NF at a rate only the
     weight-8 slice can sustain; the starved weight-1 tenants must see
     worse tail latency or drops, never the reverse. *)
  let heavy = simple_prog ~cost_ops:150_000 in
  let tr i =
    W.Trace.synthesize ~seed:(Int64.of_int (11 + i))
      (W.Profile.make ~packets:1200 ~rate_pps:400_000. ~flow_count:100
         ~tcp_fraction:0.8 ~payload:(W.Dist.Fixed 300) ())
  in
  let rs =
    Eng.run_tenants ~weights:[| 8; 1; 1 |] lnic
      [| heavy (); heavy (); heavy () |]
      [| tr 0; tr 1; tr 2 |]
  in
  (* Latency percentiles are computed over admitted packets only, so a
     starved tenant shedding its worst-wait packets can report a
     deceptively low p99 — goodput and drops are the honest fairness
     metrics. *)
  let admitted i = rs.(i).Eng.summary.Stats.packets in
  let drops i = rs.(i).Eng.summary.Stats.drops in
  check "heavy tenant drops no more" true (drops 0 <= drops 1 && drops 0 <= drops 2);
  check "heavy tenant goodput no worse" true
    (admitted 0 >= admitted 1 && admitted 0 >= admitted 2);
  check "starved tenants actually shed load" true (drops 1 > drops 0 && drops 2 > drops 0)

let test_run_tenants_thread_conservation () =
  (* Odd pools must neither crash the conservation assertion nor starve
     a tenant: 7 threads across 2 tenants -> 4 + 3. *)
  let tr () = trace ~packets:400 ~rate:100_000. () in
  let rs =
    Eng.run_tenants ~threads:7 lnic
      [| simple_prog (); Clara_nfs.Dpi.ported () |]
      [| tr (); tr () |]
  in
  check_int "both tenants report" 2 (Array.length rs);
  Array.iter
    (fun (r : Eng.result) ->
      check_int "tenant packets accounted" 400
        (r.Eng.summary.Stats.packets + r.Eng.summary.Stats.drops))
    rs

let test_run_queue_capacity_exposed () =
  (* ?queue_capacity on Engine.run: a burst of same-tick packets against
     capacity 1 + one thread admits exactly capacity + threads packets. *)
  let burst =
    W.Trace.of_packets
      (Array.init 100 (fun i ->
           { W.Packet.src_ip = Int32.of_int i; dst_ip = 2l; src_port = 1;
             dst_port = 2; proto = W.Packet.Udp; flags = 0; payload_bytes = 64;
             arrival_ns = 0L }))
  in
  let tight = Eng.run ~threads:1 ~queue_capacity:1 lnic (simple_prog ()) burst in
  check_int "capacity 1 + 1 thread admits 2" 2 tight.Eng.summary.Stats.packets;
  check_int "rest dropped" 98 tight.Eng.summary.Stats.drops;
  let roomy = Eng.run ~threads:1 ~queue_capacity:200 lnic (simple_prog ()) burst in
  check_int "large capacity admits all" 100 roomy.Eng.summary.Stats.packets

let test_run_sharded_odd_shards () =
  (* Regression: 480 threads / 7 shards used to drop 4 threads on the
     floor.  The split now conserves the pool, and sharded runs stay
     deterministic at odd shard counts. *)
  let tr = trace ~packets:2100 ~rate:200_000. () in
  let prog () = Clara_nfs.Dpi.ported () in
  let r1 = Eng.run_sharded ~domains:1 ~shards:7 lnic (prog ()) tr in
  let r3 = Eng.run_sharded ~domains:3 ~shards:7 lnic (prog ()) tr in
  check "odd shards: 1 vs 3 domains byte-identical" true (same_result r1 r3);
  check_int "odd shards: all packets accounted" 2100
    (r1.Eng.summary.Stats.packets + r1.Eng.summary.Stats.drops)

(* The summary against a reference built the way it used to be: a
   sorted copy and float folds in record order. *)
let prop_stats_summarize_reference =
  let sample =
    QCheck.Gen.(
      list_size (int_range 0 800)
        (triple (int_range 0 200_000) (oneofl W.Packet.[ Tcp; Udp; Other 1 ]) bool))
  in
  QCheck.Test.make ~name:"stats summarize equals an Array.sort reference" ~count:200
    (QCheck.make QCheck.Gen.(pair sample (int_range 1 4)))
    (fun (xs, parts) ->
      let shards = Array.init parts (fun _ -> Stats.create ()) in
      List.iteri
        (fun i (c, proto, syn) ->
          Stats.record shards.(i mod parts) ~proto ~syn ~latency_cycles:c)
        xs;
      (* Drawn in shard order, as [merge] concatenates. *)
      let ordered =
        List.concat
          (List.init parts (fun k -> List.filteri (fun i _ -> i mod parts = k) xs))
      in
      let got =
        if parts = 1 then Stats.summarize shards.(0)
        else Stats.summarize (Stats.merge (Array.to_list shards))
      in
      let n = List.length ordered in
      let sorted = Array.of_list (List.map (fun (c, _, _) -> c) ordered) in
      Array.sort compare sorted;
      let pct p =
        if n = 0 then 0
        else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (float_of_int n *. p)) - 1)))
      in
      let mean keep =
        let s, k =
          List.fold_left
            (fun (s, k) (c, proto, syn) ->
              if keep proto syn then (s +. float_of_int c, k + 1) else (s, k))
            (0., 0) ordered
        in
        if k = 0 then Float.nan else s /. float_of_int k
      in
      let same a b = compare a b = 0 in
      got.Stats.packets = n
      && got.Stats.p50_cycles = pct 0.5
      && got.Stats.p99_cycles = pct 0.99
      && got.Stats.max_cycles = (if n = 0 then 0 else sorted.(n - 1))
      && same got.Stats.mean_cycles (if n = 0 then 0. else mean (fun _ _ -> true))
      && same got.Stats.tcp_mean (mean (fun p _ -> p = W.Packet.Tcp))
      && same got.Stats.udp_mean (mean (fun p _ -> p = W.Packet.Udp))
      && same got.Stats.syn_mean (mean (fun _ syn -> syn)))

let test_stats_merge () =
  let mk latencies =
    let s = Stats.create () in
    List.iter
      (fun c -> Stats.record s ~proto:W.Packet.Udp ~syn:false ~latency_cycles:c)
      latencies;
    s
  in
  let a = mk [ 10; 30 ] and b = mk [ 20; 40 ] in
  Stats.record_drop b;
  let m = Stats.summarize (Stats.merge [ a; b ]) in
  check_int "merged count" 4 m.Stats.packets;
  check_int "merged drops" 1 m.Stats.drops;
  check_int "merged p50" 20 m.Stats.p50_cycles;
  check_int "merged max" 40 m.Stats.max_cycles;
  check "merged mean" true (abs_float (m.Stats.mean_cycles -. 25.) < 1e-9);
  (* The merge owns its samples: recording into a shard afterwards does
     not move the merged summary. *)
  let merged = Stats.merge [ a; b ] in
  let before = Stats.summarize merged in
  Stats.record a ~proto:W.Packet.Udp ~syn:false ~latency_cycles:1;
  ignore (Stats.summarize a);
  check "merged summary unmoved" true (compare before (Stats.summarize merged) = 0)

let test_stats_nearest_rank_percentile () =
  (* Regression: [Stats.summarize] used to index round(p*n), reporting
     p50 of [1;2;3;4] as 3.  Nearest-rank is ceil(p*n)-th smallest. *)
  let s = Stats.create () in
  List.iter
    (fun c -> Stats.record s ~proto:W.Packet.Udp ~syn:false ~latency_cycles:c)
    [ 4; 1; 3; 2 ];
  let sum = Stats.summarize s in
  check_int "p50 of [1;2;3;4]" 2 sum.Stats.p50_cycles;
  check_int "p99 of [1;2;3;4]" 4 sum.Stats.p99_cycles;
  check_int "max of [1;2;3;4]" 4 sum.Stats.max_cycles;
  let s2 = Stats.create () in
  for i = 1 to 100 do
    Stats.record s2 ~proto:W.Packet.Tcp ~syn:false ~latency_cycles:i
  done;
  let sum2 = Stats.summarize s2 in
  check_int "p50 of 1..100" 50 sum2.Stats.p50_cycles;
  check_int "p99 of 1..100" 99 sum2.Stats.p99_cycles;
  (* Single sample: every percentile is that sample. *)
  let s3 = Stats.create () in
  Stats.record s3 ~proto:W.Packet.Udp ~syn:false ~latency_cycles:7;
  let sum3 = Stats.summarize s3 in
  check_int "p50 of singleton" 7 sum3.Stats.p50_cycles;
  check_int "p99 of singleton" 7 sum3.Stats.p99_cycles

let suite =
  [ Alcotest.test_case "lru basics" `Quick test_lru_basics;
    Alcotest.test_case "lru recency" `Quick test_lru_recency;
    Alcotest.test_case "heap basics" `Quick test_heap_basics;
    Alcotest.test_case "heap spills into pages" `Quick test_heap_spills_to_pages;
    Alcotest.test_case "memory latencies (§3.2 numbers)" `Quick test_mem_latencies;
    Alcotest.test_case "emem cache eviction" `Quick test_mem_cache_eviction;
    Alcotest.test_case "device parse costs" `Quick test_device_parse_costs;
    Alcotest.test_case "device checksum contrast (§2.1)" `Quick test_device_checksum_contrast;
    Alcotest.test_case "device table statefulness" `Quick test_device_table_statefulness;
    Alcotest.test_case "flow cache dynamics" `Quick test_device_flow_cache_dynamics;
    Alcotest.test_case "lpm placement matters" `Quick test_device_lpm_placement_matters;
    Alcotest.test_case "accelerator serialization" `Quick test_device_accel_serialization;
    Alcotest.test_case "device errors" `Quick test_device_errors;
    Alcotest.test_case "device cost tables match params" `Quick test_device_cost_tables;
    Alcotest.test_case "device resolved costs equal the float path" `Quick
      test_device_resolved_costs;
    Alcotest.test_case "device check refuses unhostable ports" `Quick test_device_check;
    Alcotest.test_case "unrunnable operations raise a typed error" `Quick
      test_device_unrunnable;
    Alcotest.test_case "event path allocates little per packet" `Quick
      test_event_path_allocation;
    Alcotest.test_case "order_stat rank index" `Quick test_order_stat_rank_index;
    Alcotest.test_case "engine accounting" `Quick test_engine_accounting;
    Alcotest.test_case "engine latency composition" `Quick test_engine_latency_composition;
    Alcotest.test_case "engine saturation" `Quick test_engine_saturation;
    Alcotest.test_case "engine determinism" `Quick test_engine_deterministic;
    Alcotest.test_case "all NFs run" `Quick test_nfs_run;
    Alcotest.test_case "NAT variants (Fig 1)" `Quick test_nat_variant_contrast;
    Alcotest.test_case "LPM variants (Fig 1)" `Quick test_lpm_variant_contrast;
    Alcotest.test_case "FW placement (Fig 1)" `Quick test_firewall_placement_contrast;
    Alcotest.test_case "engine thread parameter" `Quick test_engine_thread_parameter;
    Alcotest.test_case "out-of-order retirement" `Quick test_engine_out_of_order_retirement;
    Alcotest.test_case "co-resident two-tenant" `Quick test_pair_coresidency;
    Alcotest.test_case "two-tenant capacity clamp" `Quick test_pair_capacity_clamp;
    Alcotest.test_case "stats nearest-rank percentiles" `Quick
      test_stats_nearest_rank_percentile;
    Alcotest.test_case "fast path: stateless byte-identity" `Quick
      test_fastpath_stateless_identity;
    Alcotest.test_case "fast path: stateful fallback" `Quick
      test_fastpath_stateful_fallback;
    Alcotest.test_case "fast path: closure state poisoned" `Quick
      test_fastpath_closure_state_poisoned;
    Alcotest.test_case "fast path: warm-up boundary" `Quick test_fastpath_warmup_boundary;
    Alcotest.test_case "two-tenant tie-break determinism" `Quick
      test_pair_tie_determinism;
    Alcotest.test_case "two-tenant per-side hit rates" `Quick
      test_pair_per_side_hit_rates;
    Alcotest.test_case "scheduler split conserves pools" `Quick
      test_scheduler_split_conserves;
    Alcotest.test_case "scheduler WRR order" `Quick test_scheduler_wrr_order;
    Alcotest.test_case "run_tenants determinism" `Quick test_run_tenants_deterministic;
    Alcotest.test_case "run_tenants starved tenant" `Quick
      test_run_tenants_starved_tenant;
    Alcotest.test_case "run_tenants thread conservation" `Quick
      test_run_tenants_thread_conservation;
    Alcotest.test_case "run queue capacity exposed" `Quick
      test_run_queue_capacity_exposed;
    Alcotest.test_case "run_sharded odd shard count" `Quick test_run_sharded_odd_shards;
    Alcotest.test_case "run_sharded domain determinism" `Quick
      test_run_sharded_domain_determinism;
    Alcotest.test_case "heavy-hitter counts per sim" `Quick test_heavy_hitter_counts_per_sim;
    Alcotest.test_case "stats merge" `Quick test_stats_merge;
    Alcotest.test_case "lru hit allocates nothing" `Quick test_lru_hit_allocates_nothing;
    Alcotest.test_case "lru growth allocates no major block" `Quick test_lru_growth_minor_only;
    Alcotest.test_case "table growth allocates no major block" `Quick
      test_table_growth_minor_only;
    Alcotest.test_case "in-flight growth allocates no major block" `Quick
      test_inflight_growth_minor_only ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_lru_capacity; prop_heap_drains_sorted; prop_lru_matches_model;
        prop_access_run_matches_singles; prop_heap_replace_min; prop_order_stat_ints;
        prop_order_stat_floats; prop_stats_summarize_reference ]
