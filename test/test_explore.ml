(* Tests for lib/explore: spec parsing, cache keys, the on-disk result
   cache, the Domain worker pool, Pareto frontiers, and whole-sweep
   determinism (1 domain vs N domains, cold vs warm cache). *)

module E = Clara_explore
module J = Clara_util.Json
module Pool = Clara_util.Pool
module W = Clara_workload
module L = Clara_lnic
module M = Clara_mapping.Mapping

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---- scratch directories ------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir =
  let n = ref 0 in
  fun label ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "clara-test-%d-%s-%d" (Unix.getpid ()) label !n)
    in
    rm_rf d;
    d

let with_dir label f =
  let d = fresh_dir label in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* ---- JSON parser ---------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [ ("a", J.Int 42); ("b", J.Float 1.5); ("c", J.String "x\"y\n");
        ("d", J.List [ J.Bool true; J.Null; J.Int (-7) ]);
        ("e", J.Obj [ ("nested", J.List []) ]) ]
  in
  check "roundtrip" true (J.parse_exn (J.to_string v) = v);
  check "compact roundtrip" true (J.parse_exn (J.to_string ~pretty:false v) = v)

let test_json_numbers () =
  check "int stays int" true (J.parse_exn "42" = J.Int 42);
  check "negative" true (J.parse_exn "-3" = J.Int (-3));
  check "float" true (J.parse_exn "1.25" = J.Float 1.25);
  check "exponent is float" true (J.parse_exn "1e3" = J.Float 1000.);
  (* Floats must round-trip losslessly: a cached metric re-read from
     disk has to equal the freshly computed one byte-for-byte. *)
  List.iter
    (fun f ->
      let s = J.to_string (J.Float f) in
      check ("lossless " ^ s) true (J.parse_exn s = J.Float f))
    [ 1996008.3333333333; 0.1; 1. /. 3.; 123456789012345.7; 6.02e23 ]

let test_json_errors () =
  let bad s = match J.parse s with Error _ -> true | Ok _ -> false in
  check "empty" true (bad "");
  check "trailing garbage" true (bad "{} x");
  check "unterminated string" true (bad "\"abc");
  check "bare word" true (bad "nope");
  check "unclosed obj" true (bad "{\"a\": 1")

let test_json_accessors () =
  let j = J.parse_exn "{\"i\": 3, \"f\": 2.5, \"s\": \"hi\", \"l\": [1]}" in
  check "member" true (J.member "i" j = Some (J.Int 3));
  check "member missing" true (J.member "zzz" j = None);
  check "int via float" true (J.to_int_opt (J.Float 4.0) = Some 4);
  check "int not from 4.5" true (J.to_int_opt (J.Float 4.5) = None);
  check "float widens int" true (J.to_float_opt (J.Int 2) = Some 2.);
  check "list" true
    (match Option.bind (J.member "l" j) J.to_list_opt with
    | Some [ J.Int 1 ] -> true
    | _ -> false)

(* ---- Targets -------------------------------------------------------- *)

let test_targets () =
  check_int "five targets" 5 (List.length L.Targets.all);
  check "host excluded from nics" true
    (not (List.mem_assoc "host" L.Targets.nics));
  List.iter
    (fun name ->
      match L.Targets.of_name name with
      | Ok g -> check ("valid " ^ name) true (L.Validate.is_valid g)
      | Error e -> Alcotest.fail e)
    L.Targets.names;
  match L.Targets.of_name "pensando" with
  | Ok _ -> Alcotest.fail "unknown NIC accepted"
  | Error e ->
      (* the error message names every valid target *)
      check "error lists choices" true
        (List.for_all (fun n -> contains ~needle:n e) L.Targets.names)

(* ---- Spec parsing --------------------------------------------------- *)

let spec_json =
  {|{ "name": "t", "seed": 7,
      "nfs": ["nat", "lpm"],
      "nics": ["netronome", "soc"],
      "options": ["default", "no-accels"],
      "workload": { "rate": [30000, 60000], "packets": 500 } }|}

let test_spec_parse () =
  match E.Spec.of_string spec_json with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check_str "name" "t" s.E.Spec.name;
      check_int "2 nf x 2 nic x 2 opt x 2 rate" 16 (List.length s.E.Spec.cells);
      let ids = List.map (fun c -> c.E.Spec.id) s.E.Spec.cells in
      check "ids are 0..15 in order" true (ids = List.init 16 Fun.id);
      let c0 = List.hd s.E.Spec.cells in
      check_str "outermost axis is the NF" "nat" c0.E.Spec.nf_name;
      check_str "then the NIC" "netronome" c0.E.Spec.nic_name;
      check_int "seed propagates" 7 c0.E.Spec.seed;
      check_int "packets propagate" 500 c0.E.Spec.profile.W.Profile.packets

let test_spec_zip () =
  let j =
    {|{ "nfs": ["nat"], "nics": ["soc"],
        "workload": { "combine": "zip", "rate": [10000, 20000, 30000],
                      "payload": [100, 200, 300], "packets": 500 } }|}
  in
  (match E.Spec.of_string j with
  | Error e -> Alcotest.fail e
  | Ok s -> check_int "zip pairs pointwise" 3 (List.length s.E.Spec.cells));
  let mismatched =
    {|{ "nfs": ["nat"], "nics": ["soc"],
        "workload": { "combine": "zip", "rate": [1, 2], "payload": [1, 2, 3] } }|}
  in
  match E.Spec.of_string mismatched with
  | Ok _ -> Alcotest.fail "mismatched zip accepted"
  | Error e -> check "zip error names lengths" true (String.length e > 0)

let test_spec_rejects () =
  let bad j = match E.Spec.of_string j with Error _ -> true | Ok _ -> false in
  check "unknown NF" true (bad {|{ "nfs": ["nonesuch"], "nics": ["soc"] }|});
  check "unknown NIC" true (bad {|{ "nfs": ["nat"], "nics": ["pensando"] }|});
  check "unknown options" true
    (bad {|{ "nfs": ["nat"], "nics": ["soc"], "options": ["turbo"] }|});
  check "empty nfs" true (bad {|{ "nfs": [], "nics": ["soc"] }|});
  check "missing nics" true (bad {|{ "nfs": ["nat"] }|});
  check "malformed JSON" true (bad {|{ "nfs": ["nat", }|})

let test_spec_inline_source () =
  let j =
    {|{ "nfs": [{ "name": "mini", "source": "nf mini { handler h(p) { var hdr = parse_header(p); emit(p); } }" }],
        "nics": ["asic"], "workload": { "packets": 500 } }|}
  in
  match E.Spec.of_string j with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let c = List.hd s.E.Spec.cells in
      check_str "inline name" "mini" c.E.Spec.nf_name;
      check "inline source kept" true
        (String.length c.E.Spec.nf_source > 20)

(* ---- Cache keys ----------------------------------------------------- *)

let mk_cell ?(id = 0) ?(nf_name = "nat") ?(source = "nf x {}")
    ?(nic = "netronome") ?(options = M.default_options) ?(seed = 42) () =
  { E.Spec.id; nf_name; nf_source = source; nic_name = nic;
    opt_name = "default"; options; wl_label = "wl";
    profile = W.Profile.make ~packets:500 ~flow_count:200 (); seed }

let key ?(build = "build-a") ?(salt = "") c = E.Key.of_cell ~build ~salt c

let test_key_stability () =
  let c = mk_cell () in
  let k = key c in
  check_str "same cell, same key" k (key c);
  check_int "hex md5" 32 (String.length k);
  (* The key is content-addressed: renaming the NF or moving the cell
     to another spec position must not invalidate it... *)
  check_str "rename keeps key" k (key (mk_cell ~id:9 ~nf_name:"other" ()));
  (* ...but anything the numbers depend on must. *)
  let differs label c' = check label true (key c' <> k) in
  differs "source edit changes key" (mk_cell ~source:"nf x {} " ());
  differs "nic changes key" (mk_cell ~nic:"soc" ());
  differs "seed changes key" (mk_cell ~seed:43 ());
  differs "options change key"
    (mk_cell
       ~options:
         { M.default_options with
           M.disallowed_accels = [ L.Unit_.Lookup ] }
       ());
  check "salt changes key" true (key ~salt:"v2" c <> k);
  (* A rebuilt executable (any code or target-model change) misses
     every entry of the old one. *)
  check "build changes key" true (key ~build:"build-b" c <> k);
  check "this executable has a digest" true (E.Key.build () <> None)

(* ---- Cache ---------------------------------------------------------- *)

let test_cache_roundtrip () =
  with_dir "cache" @@ fun dir ->
  let c = E.Cache.create ~dir in
  let key = key (mk_cell ()) in
  check "empty cache misses" true (E.Cache.lookup c ~key = None);
  let payload = J.Obj [ ("mean_us", J.Float 1.25) ] in
  E.Cache.store c ~key payload;
  check "hit after store" true (E.Cache.lookup c ~key = Some payload);
  check_int "one entry on disk" 1 (E.Cache.entries c);
  (* A second cache handle over the same directory sees the entry. *)
  let c2 = E.Cache.create ~dir in
  check "persistent across handles" true (E.Cache.lookup c2 ~key = Some payload)

let test_cache_corruption () =
  with_dir "corrupt" @@ fun dir ->
  let c = E.Cache.create ~dir in
  let key = key (mk_cell ()) in
  E.Cache.store c ~key (J.Int 1);
  let path = Filename.concat dir (key ^ ".json") in
  (* Truncated file: parse error must degrade to a miss, not raise. *)
  let oc = open_out path in
  output_string oc "{\"key\": \"";
  close_out oc;
  check "corrupt entry is a miss" true (E.Cache.lookup c ~key = None);
  (* Key/content mismatch (entry copied to the wrong name): miss. *)
  let other = String.map (function 'a' -> 'b' | ch -> ch) key in
  E.Cache.store c ~key:other (J.Int 2);
  Sys.rename (Filename.concat dir (other ^ ".json")) path;
  check "mismatched entry is a miss" true (E.Cache.lookup c ~key = None);
  (* Malformed keys never touch the filesystem. *)
  check "traversal key is a miss" true
    (E.Cache.lookup c ~key:"../../etc/passwd" = None)

(* ---- Worker pool (the sweep executor) ------------------------------ *)

let test_executor_ordering () =
  let n = 40 in
  let results, stats = Pool.map ~domains:4 (fun i -> i * i) n in
  check_int "all jobs ran" n stats.Pool.jobs;
  Array.iteri
    (fun i r ->
      match r with
      | Pool.Done v -> check_int "slot order" (i * i) v
      | Pool.Failed e -> Alcotest.fail e)
    results

let test_executor_isolation () =
  let results, _ =
    Pool.map ~domains:3
      (fun i -> if i mod 5 = 2 then failwith (Printf.sprintf "boom %d" i) else i)
      15
  in
  Array.iteri
    (fun i r ->
      match (r, i mod 5 = 2) with
      | Pool.Failed e, true ->
          check_str "failure message" (Printf.sprintf "boom %d" i) e
      | Pool.Done v, false -> check_int "survivor" i v
      | Pool.Done _, true -> Alcotest.fail "exception swallowed"
      | Pool.Failed e, false -> Alcotest.fail ("collateral failure: " ^ e))
    results

let test_executor_timeout () =
  let results, _ =
    Pool.map ~domains:2 ~timeout_ms:50
      (fun i ->
        if i = 0 then Unix.sleepf 0.25;
        i)
      3
  in
  (match results.(0) with
  | Pool.Failed e ->
      check "timeout reported" true
        (String.length e >= 7 && String.sub e 0 7 = "timeout")
  | Pool.Done _ -> Alcotest.fail "overdue job not timed out");
  (match results.(1) with
  | Pool.Done 1 -> ()
  | _ -> Alcotest.fail "fast job affected by sibling timeout")

(* The worker domains outlive a call: back-to-back calls run their jobs
   on the same parked domains instead of spawning fresh ones. *)
let test_pool_reuses_domains () =
  let seen = Hashtbl.create 8 and seen_mu = Mutex.create () in
  for _ = 1 to 200 do
    let results, _ =
      Pool.map ~domains:2
        (fun _ ->
          Mutex.lock seen_mu;
          Hashtbl.replace seen (Domain.self () :> int) ();
          Mutex.unlock seen_mu)
        4
    in
    Array.iter (function Pool.Done () -> () | Pool.Failed e -> Alcotest.fail e) results
  done;
  check (Printf.sprintf "at most 2 worker domains (%d)" (Hashtbl.length seen)) true
    (Hashtbl.length seen <= 2)

let test_pool_worker_survives_failure () =
  let results, _ = Pool.map ~domains:2 (fun _ -> failwith "boom") 2 in
  Array.iter
    (function Pool.Failed e -> check_str "failure message" "boom" e | Pool.Done () -> Alcotest.fail "exception swallowed")
    results;
  let results, _ = Pool.map ~domains:2 (fun i -> i + 1) 6 in
  Array.iteri
    (fun i r ->
      match r with
      | Pool.Done v -> check_int "next call served" (i + 1) v
      | Pool.Failed e -> Alcotest.fail e)
    results

let test_pool_nested_map () =
  let results, _ =
    Pool.map ~domains:2
      (fun i ->
        let inner, _ = Pool.map ~domains:2 (fun j -> (10 * i) + j) 3 in
        Array.fold_left
          (fun acc -> function Pool.Done v -> acc + v | Pool.Failed e -> failwith e)
          0 inner)
      2
  in
  Array.iteri
    (fun i r ->
      match r with
      | Pool.Done v -> check_int "inner sums" ((30 * i) + 3) v
      | Pool.Failed e -> Alcotest.fail e)
    results

(* ---- Frontier ------------------------------------------------------- *)

let pt p99 pps nj = { E.Frontier.p99_us = p99; max_pps = pps; nj_per_packet = nj }

let test_frontier () =
  let a = pt 1. 100. 5. and b = pt 2. 50. 9. and c = pt 0.5 80. 9. in
  check "a dominates b" true (E.Frontier.dominates a b);
  check "b not a" false (E.Frontier.dominates b a);
  check "no self-domination" false (E.Frontier.dominates a a);
  check "a/c incomparable" false
    (E.Frontier.dominates a c || E.Frontier.dominates c a);
  let front = E.Frontier.pareto [ (0, a); (1, b); (2, c) ] in
  check "b filtered, order kept" true (List.map fst front = [ 0; 2 ]);
  check "best_by ties to first" true
    (E.Frontier.best_by
       (fun (_, x) (_, y) -> compare x.E.Frontier.p99_us y.E.Frontier.p99_us)
       [ (5, pt 1. 0. 0.); (6, pt 1. 0. 0.) ]
    |> Option.map fst = Some 5)

(* ---- Whole-sweep behavior ------------------------------------------- *)

let small_spec ?salt () =
  let nf n = (n, (Option.get (Clara_nfs.Corpus.find n)).Clara_nfs.Corpus.source) in
  let profile =
    W.Profile.make ~payload:(W.Dist.Fixed 300) ~packets:400 ~flow_count:200
      ~rate_pps:40_000. ()
  in
  E.Spec.make ?salt ~name:"unit" ~seed:11 ~nfs:[ nf "nat"; nf "firewall" ]
    ~nics:[ "netronome"; "asic" ]
    ~opts:[ ("default", M.default_options) ]
    ~workloads:[ ("w", profile) ] ()

let report_string r = J.to_string (E.Sweep.to_json r)

let test_sweep_determinism () =
  let spec = small_spec () in
  let r1 = E.Sweep.run ~domains:1 spec in
  let r3 = E.Sweep.run ~domains:3 spec in
  check_int "no failures" 0 r1.E.Sweep.stats.E.Sweep.failed;
  check "1-domain and 3-domain reports byte-identical" true
    (String.equal (report_string r1) (report_string r3))

let test_sweep_cache_cycle () =
  with_dir "sweep" @@ fun dir ->
  let spec = small_spec () in
  let cache = E.Cache.create ~dir in
  let cold = E.Sweep.run ~domains:2 ~cache spec in
  check_int "cold: all misses" 4 cold.E.Sweep.stats.E.Sweep.cache_misses;
  check_int "cold: no hits" 0 cold.E.Sweep.stats.E.Sweep.cache_hits;
  let warm = E.Sweep.run ~domains:1 ~cache spec in
  check_int "warm: all hits" 4 warm.E.Sweep.stats.E.Sweep.cache_hits;
  check_int "warm: no misses" 0 warm.E.Sweep.stats.E.Sweep.cache_misses;
  check "cold and warm reports byte-identical" true
    (String.equal (report_string cold) (report_string warm));
  (* Salting the spec invalidates every entry (same cells, new keys). *)
  let resalted = E.Sweep.run ~domains:1 ~cache (small_spec ~salt:"v2" ()) in
  check_int "salt change: all misses" 4
    resalted.E.Sweep.stats.E.Sweep.cache_misses

let test_sweep_failure_isolation () =
  with_dir "fail" @@ fun dir ->
  let profile = W.Profile.make ~packets:400 ~flow_count:200 () in
  let spec =
    E.Spec.make ~name:"fail" ~seed:11
      ~nfs:
        [ ("ok", (Option.get (Clara_nfs.Corpus.find "nat")).Clara_nfs.Corpus.source);
          ("broken", "nf broken {") ]
      ~nics:[ "netronome" ]
      ~opts:[ ("default", M.default_options) ]
      ~workloads:[ ("w", profile) ] ()
  in
  let cache = E.Cache.create ~dir in
  let r = E.Sweep.run ~domains:2 ~cache spec in
  check_int "one failed cell" 1 r.E.Sweep.stats.E.Sweep.failed;
  (match r.E.Sweep.outcomes.(0).E.Sweep.status with
  | E.Sweep.Computed _ -> ()
  | E.Sweep.Failed e -> Alcotest.fail ("healthy cell failed: " ^ e)
  | E.Sweep.Pruned _ -> Alcotest.fail "healthy cell pruned without an SLO");
  (match r.E.Sweep.outcomes.(1).E.Sweep.status with
  | E.Sweep.Failed _ -> ()
  | E.Sweep.Computed _ -> Alcotest.fail "broken NF produced metrics"
  | E.Sweep.Pruned _ -> Alcotest.fail "broken NF pruned without an SLO");
  (* Failures are never cached: only the healthy cell is on disk, and a
     rerun recomputes (not hits) the broken one. *)
  check_int "only successes cached" 1 (E.Cache.entries cache);
  let r2 = E.Sweep.run ~domains:1 ~cache spec in
  check_int "rerun: one hit" 1 r2.E.Sweep.stats.E.Sweep.cache_hits;
  check_int "rerun: broken cell recomputed" 1
    r2.E.Sweep.stats.E.Sweep.cache_misses;
  (* The report still ranks the healthy cell. *)
  check "frontier nonempty" true (r2.E.Sweep.frontier <> [])

let test_sweep_slo_pruning () =
  with_dir "prune" @@ fun dir ->
  let spec = small_spec () in
  let cache = E.Cache.create ~dir in
  (* An absurdly tight SLO: every static lower bound exceeds it, so the
     whole grid is pruned before simulation. *)
  let r = E.Sweep.run ~domains:2 ~cache ~slo_p99_us:0.001 spec in
  check_int "all cells pruned" 4 r.E.Sweep.stats.E.Sweep.pruned;
  check_int "nothing computed" 0 r.E.Sweep.stats.E.Sweep.cache_misses;
  Array.iter
    (fun o ->
      match o.E.Sweep.status with
      | E.Sweep.Pruned reason ->
          check "prune reason names the SLO" true
            (contains ~needle:"SLO" reason)
      | E.Sweep.Computed _ | E.Sweep.Failed _ ->
          Alcotest.fail "cell escaped an impossible SLO")
    r.E.Sweep.outcomes;
  (* Pruned cells are never cached... *)
  check_int "prunes leave no cache entries" 0 (E.Cache.entries cache);
  (* ...so relaxing the SLO recomputes the full grid. *)
  let relaxed = E.Sweep.run ~domains:1 ~cache ~slo_p99_us:1e9 spec in
  check_int "relaxed: nothing pruned" 0 relaxed.E.Sweep.stats.E.Sweep.pruned;
  check_int "relaxed: all computed" 4 relaxed.E.Sweep.stats.E.Sweep.cache_misses;
  (* A pruning sweep is deterministic like any other. *)
  let r2 = E.Sweep.run ~domains:1 ~slo_p99_us:0.001 spec in
  check "pruned reports byte-identical across domain counts" true
    (String.equal (report_string r) (report_string r2))

let test_sweep_csv_and_render () =
  let spec = small_spec () in
  let r = E.Sweep.run ~domains:1 spec in
  let csv = E.Sweep.to_csv r in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "csv: header + one row per cell" 5 (List.length lines);
  check "csv header" true (List.hd lines = E.Sweep.csv_header);
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  E.Sweep.render fmt r;
  Format.pp_print_flush fmt ();
  check "render mentions frontier" true
    (contains ~needle:"pareto frontier" (Buffer.contents buf))

let suite =
  [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json numbers lossless" `Quick test_json_numbers;
    Alcotest.test_case "json parse errors" `Quick test_json_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "targets registry" `Quick test_targets;
    Alcotest.test_case "spec parse + expansion order" `Quick test_spec_parse;
    Alcotest.test_case "spec zip axes" `Quick test_spec_zip;
    Alcotest.test_case "spec rejects bad input" `Quick test_spec_rejects;
    Alcotest.test_case "spec inline NF source" `Quick test_spec_inline_source;
    Alcotest.test_case "cache key stability" `Quick test_key_stability;
    Alcotest.test_case "cache roundtrip" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache corruption = miss" `Quick test_cache_corruption;
    Alcotest.test_case "executor result ordering" `Quick test_executor_ordering;
    Alcotest.test_case "executor failure isolation" `Quick test_executor_isolation;
    Alcotest.test_case "executor cooperative timeout" `Quick test_executor_timeout;
    Alcotest.test_case "pool reuses its worker domains" `Quick test_pool_reuses_domains;
    Alcotest.test_case "pool worker survives a failed job" `Quick
      test_pool_worker_survives_failure;
    Alcotest.test_case "pool map nested in a job" `Quick test_pool_nested_map;
    Alcotest.test_case "pareto frontier" `Quick test_frontier;
    Alcotest.test_case "sweep domain-count determinism" `Quick test_sweep_determinism;
    Alcotest.test_case "sweep cache cold/warm/salt" `Quick test_sweep_cache_cycle;
    Alcotest.test_case "sweep failure isolation" `Quick test_sweep_failure_isolation;
    Alcotest.test_case "sweep SLO pruning" `Quick test_sweep_slo_pruning;
    Alcotest.test_case "sweep csv + text render" `Quick test_sweep_csv_and_render ]
