(* Tests for the logical SmartNIC model: cost functions, graph accessors,
   the Netronome/SoC instances, slicing and validation. *)

module Cf = Clara_lnic.Cost_fn
module U = Clara_lnic.Unit_
module Mem = Clara_lnic.Memory
module G = Clara_lnic.Graph
module P = Clara_lnic.Params
module N = Clara_lnic.Netronome
module Soc = Clara_lnic.Soc_nic
module V = Clara_lnic.Validate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_cost_fn () =
  let f = Cf.linear ~base:50. ~per_unit:0.25 in
  check_int "checksum @1000B = 300" 300 (Cf.eval_int f 1000);
  check_int "const" 7 (Cf.eval_int (Cf.const 7.) 12345);
  check_int "negative size clamps" 5 (Cf.eval_int (Cf.const 5.) (-3));
  let g = Cf.logarithmic ~base:0. ~log2_coeff:10. in
  check_int "log2(1+1023) = 10 -> 100" 100 (Cf.eval_int g 1023);
  let s = Cf.add f g in
  check "add combines" true
    (Cf.eval s 1023. = Cf.eval f 1023. +. Cf.eval g 1023.);
  check "scale" true (Cf.eval (Cf.scale 2. f) 100. = 2. *. Cf.eval f 100.)

let test_netronome_shape () =
  let g = N.default in
  check "valid" true (V.is_valid g);
  check_int "60 NPUs" 60 (List.length (G.general_cores g));
  check_int "4 accelerators" 4 (List.length (G.accelerators g));
  check "has parse accel" true (G.find_accelerator g U.Parse <> None);
  check "has lookup accel" true (G.find_accelerator g U.Lookup <> None);
  check "has checksum accel" true (G.find_accelerator g U.Checksum <> None);
  check "has crypto accel" true (G.find_accelerator g U.Crypto <> None);
  check_int "480 threads" 480 (G.total_threads g);
  (* Paper's memory parameters. *)
  let imem = N.imem g and emem = N.emem g in
  check_int "IMEM 4MB" (4 * 1024 * 1024) imem.Mem.size_bytes;
  check_int "IMEM 250cyc" 250 imem.Mem.read_cycles;
  check_int "EMEM 500cyc" 500 emem.Mem.read_cycles;
  check "EMEM has 3MB cache" true
    (match emem.Mem.cache with
    | Some c -> c.Mem.cache_bytes = 3 * 1024 * 1024
    | None -> false);
  let ctm = N.ctm_of_island g 0 in
  check_int "CTM 256KB" (256 * 1024) ctm.Mem.size_bytes;
  check_int "CTM 50cyc" 50 ctm.Mem.read_cycles

let test_netronome_numa () =
  let g = N.default in
  let npu0 = List.hd (G.general_cores g) in
  let ctm0 = N.ctm_of_island g 0 and ctm1 = N.ctm_of_island g 1 in
  let own = G.access_cycles g ~unit_id:npu0.U.id ~mem_id:ctm0.Mem.id `Read in
  let remote = G.access_cycles g ~unit_id:npu0.U.id ~mem_id:ctm1.Mem.id `Read in
  check "own CTM 50" true (own = Some 50);
  check "remote CTM slower" true
    (match (own, remote) with Some a, Some b -> b > a | _ -> false);
  (* Fastest reachable memory from an NPU is its local memory. *)
  match G.reachable_memories g ~unit_id:npu0.U.id with
  | (m, _) :: _ -> check "local first" true (m.Mem.level = Mem.Local)
  | [] -> Alcotest.fail "NPU reaches no memory"

let test_accel_capabilities () =
  let p = N.default.G.params in
  check "lookup accel serves lpm" true
    (P.accel_vcall_cost p U.Lookup P.V_lpm_lookup <> None);
  check "checksum accel serves checksum" true
    (P.accel_vcall_cost p U.Checksum P.V_checksum <> None);
  check "checksum accel does not scan payloads" true
    (P.accel_vcall_cost p U.Checksum P.V_payload_scan = None);
  (* The §2.1 contrast: accelerator checksum @1000B ~300 cycles, software
     pays ~1700 more. *)
  let accel = Option.get (P.accel_vcall_cost p U.Checksum P.V_checksum) in
  let core = Option.get (P.core_vcall_cost p P.V_checksum) in
  check_int "accel 300 @1000B" 300 (Cf.eval_int accel 1000);
  check "core ~1700 extra" true
    (Cf.eval_int core 1000 - Cf.eval_int accel 1000 >= 1500);
  (* LPM software walk grows linearly; flow cache is constant. *)
  let sw = Option.get (P.core_vcall_cost p P.V_lpm_lookup) in
  let fc = Option.get (P.accel_vcall_cost p U.Lookup P.V_lpm_lookup) in
  check "software LPM grows" true (Cf.eval sw 30000. > 10. *. Cf.eval sw 1000.);
  check "flow cache flat" true (Cf.eval fc 30000. = Cf.eval fc 1000.);
  check "orders of magnitude apart @30k" true (Cf.eval sw 30000. > 100. *. Cf.eval fc 30000.)

let test_op_costs () =
  let p = N.default.G.params in
  check "metadata ops 2-5 cycles" true
    (let c = P.op_cost p P.Move ~has_fpu:false in
     c >= 2. && c <= 5.);
  check "fp emulated is much slower" true
    (P.op_cost p P.Fp ~has_fpu:false > 10. *. P.op_cost p P.Fp ~has_fpu:true)

let test_soc () =
  let g = Soc.default in
  check "valid" true (V.is_valid g);
  check_int "8 cores" 8 (List.length (G.general_cores g));
  check "no lookup accel" true (G.find_accelerator g U.Lookup = None);
  check "no parse accel" true (G.find_accelerator g U.Parse = None);
  check "cores have fpu" true
    (List.for_all
       (fun u -> match u.U.kind with U.General_core { has_fpu; _ } -> has_fpu | _ -> false)
       (G.general_cores g))

let test_placement_classes () =
  let g = N.default in
  let classes = G.placement_classes g in
  (* 5 islands of identical NPUs + 4 distinct accelerators = 9 classes. *)
  check_int "9 classes" 9 (List.length classes);
  let sizes = List.map (fun c -> List.length c.G.members) classes in
  check "island classes have 12 members" true (List.mem 12 sizes);
  (* Every unit appears exactly once across all classes. *)
  let all = List.concat_map (fun c -> c.G.members) classes in
  check_int "covers all units" (Array.length g.G.units) (List.length all);
  check "no duplicates" true
    (List.length (List.sort_uniq compare all) = List.length all)

let test_slice () =
  let g = N.default in
  let half = G.slice g ~keep_num:1 ~keep_den:2 in
  check "sliced still valid" true (V.is_valid half);
  check_int "30 cores kept" 30 (List.length (G.general_cores half));
  check_int "accelerators kept" 4 (List.length (G.accelerators half));
  let imem_full = N.imem g and imem_half = N.imem half in
  check_int "IMEM halved" (imem_full.Mem.size_bytes / 2) imem_half.Mem.size_bytes;
  (* Local (per-core) memories are not scaled. *)
  let local_full = (G.memory g 0).Mem.size_bytes in
  let local_half = (G.memory half 0).Mem.size_bytes in
  check_int "local memory unscaled" local_full local_half;
  check "bad fraction rejected" true
    (try ignore (G.slice g ~keep_num:3 ~keep_den:2); false
     with Invalid_argument _ -> true)

let test_pipeline_ok () =
  let g = N.default in
  let parse = Option.get (G.find_accelerator g U.Parse) in
  let csum = Option.get (G.find_accelerator g U.Checksum) in
  let npu = List.hd (G.general_cores g) in
  check "parse -> npu ok" true (G.pipeline_ok g parse.U.id npu.U.id);
  check "npu -> csum ok" true (G.pipeline_ok g npu.U.id csum.U.id);
  check "csum -> parse not ok" false (G.pipeline_ok g csum.U.id parse.U.id);
  check "same unit ok" true (G.pipeline_ok g npu.U.id npu.U.id)

let test_validate_catches () =
  let g = N.default in
  (* Dangling link. *)
  let bad =
    G.update g
      ~links:({ Clara_lnic.Link.kind = Clara_lnic.Link.Access (999, 0); weight_cycles = 0 } :: g.G.links)
  in
  check "dangling link caught" false (V.is_valid bad);
  (* Backwards pipeline edge. *)
  let csum = Option.get (G.find_accelerator g U.Checksum) in
  let parse = Option.get (G.find_accelerator g U.Parse) in
  let bad2 =
    G.update g
      ~links:
        ({ Clara_lnic.Link.kind = Clara_lnic.Link.Pipeline (csum.U.id, parse.U.id);
           weight_cycles = 0 }
        :: g.G.links)
  in
  check "stage violation caught" false (V.is_valid bad2)

(* The access index must give exactly what a scan over [links] gives:
   the first link's weight, every link's region in stable fastest-first
   order, and the local region picked from that list. *)
let scan_weight g ~unit_id ~mem_id =
  List.find_map
    (fun l ->
      match l.Clara_lnic.Link.kind with
      | Clara_lnic.Link.Access (u, m) when u = unit_id && m = mem_id ->
          Some l.Clara_lnic.Link.weight_cycles
      | _ -> None)
    g.G.links

let scan_reach g ~unit_id =
  List.filter_map
    (fun l ->
      match l.Clara_lnic.Link.kind with
      | Clara_lnic.Link.Access (u, m) when u = unit_id ->
          Some (g.G.memories.(m), l.Clara_lnic.Link.weight_cycles)
      | _ -> None)
    g.G.links
  |> List.sort (fun (m1, w1) (m2, w2) ->
         compare (m1.Mem.read_cycles + w1) (m2.Mem.read_cycles + w2))

let scan_local g ~unit_id =
  let reach = scan_reach g ~unit_id in
  match List.find_opt (fun (m, _) -> m.Mem.level = Mem.Local) reach with
  | Some (m, _) -> Some m.Mem.id
  | None -> ( match reach with (m, _) :: _ -> Some m.Mem.id | [] -> None)

let check_index_agrees what g =
  Array.iteri
    (fun unit_id _ ->
      Array.iteri
        (fun mem_id _ ->
          check
            (Printf.sprintf "%s: weight u%d m%d" what unit_id mem_id)
            true
            (G.access_weight g ~unit_id ~mem_id = scan_weight g ~unit_id ~mem_id))
        g.G.memories;
      check (Printf.sprintf "%s: reach u%d" what unit_id) true
        (G.reachable_memories g ~unit_id = scan_reach g ~unit_id);
      check (Printf.sprintf "%s: local u%d" what unit_id) true
        (G.local_region g ~unit_id = scan_local g ~unit_id))
    g.G.units;
  let max_w =
    List.fold_left
      (fun acc l ->
        match l.Clara_lnic.Link.kind with
        | Clara_lnic.Link.Access _ -> max acc l.Clara_lnic.Link.weight_cycles
        | _ -> acc)
      0 g.G.links
  in
  check_int (what ^ ": max access weight") max_w (G.max_access_weight g)

let test_access_index () =
  List.iter (fun (name, g) -> check_index_agrees name g) Clara_lnic.Targets.all;
  check_index_agrees "netronome[1/2]" (G.slice N.default ~keep_num:1 ~keep_den:2);
  check_index_agrees "shrunk emem cache"
    (Clara.Interference.shrink_emem_cache N.default ~by_bytes:(1024 * 1024));
  (* Two links for one (unit, memory): the first one's weight wins, and
     both show up in the reachable list. *)
  let g = Soc.default in
  let u, m, w =
    List.find_map
      (fun l ->
        match l.Clara_lnic.Link.kind with
        | Clara_lnic.Link.Access (u, m) -> Some (u, m, l.Clara_lnic.Link.weight_cycles)
        | _ -> None)
      g.G.links
    |> Option.get
  in
  let dup =
    G.update g
      ~links:
        (g.G.links
        @ [ { Clara_lnic.Link.kind = Clara_lnic.Link.Access (u, m); weight_cycles = w + 100 } ])
  in
  check_index_agrees "duplicate access link" dup;
  check "first link wins" true (G.access_weight dup ~unit_id:u ~mem_id:m = Some w);
  check_int "duplicate kept in reach"
    (List.length (G.reachable_memories g ~unit_id:u) + 1)
    (List.length (G.reachable_memories dup ~unit_id:u));
  (* Dangling ids never reach the index, and validation still sees them. *)
  let dangle kind =
    G.update N.default
      ~links:({ Clara_lnic.Link.kind; weight_cycles = 0 } :: N.default.G.links)
  in
  (* [test_validate_catches] checks that validation reports this one. *)
  let bad_unit = dangle (Clara_lnic.Link.Access (999, 0)) in
  check_index_agrees "dangling unit" bad_unit;
  check "dangling unit not indexed" true
    (G.access_weight bad_unit ~unit_id:999 ~mem_id:0 = None
    && G.reachable_memories bad_unit ~unit_id:999 = []);
  let bad_mem = dangle (Clara_lnic.Link.Access (0, 999)) in
  check "dangling memory not indexed" true
    (G.access_weight bad_mem ~unit_id:0 ~mem_id:999 = None);
  check "dangling memory caught" false (V.is_valid bad_mem)

let test_bluefield_shape () =
  let g = Clara_lnic.Bluefield.default in
  check "valid" true (V.is_valid g);
  check "off-path" true (g.G.arch = G.Off_path);
  check "has eswitch" true (G.find_accelerator g U.Eswitch <> None);
  check_int "8 arm cores" 8 (List.length (G.general_cores g));
  check "eswitch holds flow-cache SRAM" true
    (P.accel_sram g.G.params U.Eswitch = 2 * 1024 * 1024);
  (* Upcall price: only off-path graphs pay it. *)
  check_int "bluefield upcall 1000" 1000 (G.upcall_cycles g);
  check_int "netronome upcall 0" 0 (G.upcall_cycles N.default);
  check_int "host upcall 0" 0 (G.upcall_cycles Clara_lnic.Host.default);
  (* The eSwitch prices match-action work but refuses table updates —
     the capability gap behind the CLARA105 slow-path demotion. *)
  check "eswitch serves lpm" true
    (P.accel_vcall_cost g.G.params U.Eswitch P.V_lpm_lookup <> None);
  check "eswitch refuses table_update" true
    (P.accel_vcall_cost g.G.params U.Eswitch P.V_table_update = None)

let test_validate_offpath_shapes () =
  let bf = Clara_lnic.Bluefield.default in
  let has what g =
    List.exists (fun (e : V.error) -> e.V.what = what) (V.errors g)
  in
  (* Disconnected eSwitch: drop every link touching it. *)
  let esw = Option.get (G.find_accelerator bf U.Eswitch) in
  let touches l =
    Clara_lnic.Link.src l = Clara_lnic.Link.U esw.U.id
    || Clara_lnic.Link.dst l = Clara_lnic.Link.U esw.U.id
  in
  let cut =
    G.update bf ~links:(List.filter (fun l -> not (touches l)) bf.G.links)
  in
  check "disconnected eSwitch caught" true (has "eswitch-disconnected" cut);
  check "intact bluefield has no such error" false
    (has "eswitch-disconnected" bf);
  (* Zero-capacity flow cache. *)
  let no_sram =
    G.update bf ~params:{ bf.G.params with P.accel_sram_bytes = [] }
  in
  check "zero flow cache caught" true (has "eswitch-no-flow-cache" no_sram);
  (* Off-path NIC whose hub array lost its PCIe DMA hub. *)
  let no_pcie =
    G.update bf ~hubs:(Array.sub bf.G.hubs 0 3)
      ~links:
        (List.filter
           (fun l -> Clara_lnic.Link.src l <> Clara_lnic.Link.H 3)
           bf.G.links)
  in
  check "missing PCIe DMA hub caught" true (has "offpath-no-pcie" no_pcie);
  (* An on-path NIC without a Host_dma hub is fine. *)
  check "on-path needs no PCIe hub" false (has "offpath-no-pcie" N.default)

let test_warnings () =
  (* The shipped targets are warning-free... *)
  List.iter
    (fun g -> check (g.G.name ^ " warning-free") true (V.warnings g = []))
    [ N.default; Soc.default ];
  (* ...the ASIC intentionally warns: payload_scan/crypto have no
     executor there. *)
  let asic_warns = V.warnings Clara_lnic.Asic_nic.default in
  check "asic warns about payload_scan" true
    (List.exists
       (fun w ->
         String.length w >= 25
         && String.sub w 0 25 = "virtual call payload_scan")
       asic_warns);
  (* A broken parameter set is flagged. *)
  let broken =
    G.update N.default
      ~params:{ N.default.G.params with P.core_vcalls = []; accel_vcalls = [] }
  in
  check "gutted params warn a lot" true (List.length (V.warnings broken) > 5)

let prop_slice_monotonic =
  QCheck.Test.make ~name:"slice keeps at least 1 core, at most all" ~count:50
    (QCheck.pair (QCheck.int_range 1 8) (QCheck.int_range 1 8))
    (fun (a, b) ->
      QCheck.assume (a >= 1 && b >= 1);
      let num = min a b and den = max a b in
      let g = N.default in
      let s = G.slice g ~keep_num:num ~keep_den:den in
      let n = List.length (G.general_cores s) in
      n >= 1
      && n <= List.length (G.general_cores g)
      && Clara_lnic.Validate.is_valid s)

(* [eval_int]'s linear shortcut against the float definition, on
   coefficients that land on exact halves, zeros of either sign and
   negative sums, and on log terms that take the full path. *)
let prop_eval_int_matches_eval =
  let coeff =
    QCheck.Gen.(
      oneof
        [ map (fun k -> float_of_int k /. 2.) (int_range (-4000) 4000);
          map (fun k -> float_of_int k /. 8.) (int_range (-64) 64);
          float_range (-50.) 3000.;
          oneofl [ 0.; -0.; 0.5; 1e-9 ] ])
  in
  QCheck.Test.make ~name:"eval_int equals rounded eval" ~count:2000
    (QCheck.make
       QCheck.Gen.(
         pair
           (triple coeff coeff (oneof [ return 0.; return (-0.); coeff ]))
           (int_range (-10) 100_000)))
    (fun ((base, per_unit, log2_coeff), n) ->
      let f = { Cf.base; per_unit; log2_coeff } in
      let v = Cf.eval f (float_of_int n) in
      let want = if v <= 0. then 0 else int_of_float (Float.round v) in
      Cf.eval_int f n = want)

let suite =
  [ Alcotest.test_case "cost functions" `Quick test_cost_fn;
    Alcotest.test_case "netronome shape & paper parameters" `Quick test_netronome_shape;
    Alcotest.test_case "netronome NUMA weights" `Quick test_netronome_numa;
    Alcotest.test_case "accelerator capabilities (§2.1 contrasts)" `Quick test_accel_capabilities;
    Alcotest.test_case "op costs" `Quick test_op_costs;
    Alcotest.test_case "soc instance" `Quick test_soc;
    Alcotest.test_case "placement classes" `Quick test_placement_classes;
    Alcotest.test_case "slice for interference" `Quick test_slice;
    Alcotest.test_case "pipeline stage order" `Quick test_pipeline_ok;
    Alcotest.test_case "validate catches corruption" `Quick test_validate_catches;
    Alcotest.test_case "bluefield off-path shape" `Quick test_bluefield_shape;
    Alcotest.test_case "validate off-path shapes" `Quick test_validate_offpath_shapes;
    Alcotest.test_case "validate warnings" `Quick test_warnings ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_slice_monotonic; prop_eval_int_matches_eval ]
  @ [ Alcotest.test_case "access index agrees with a link scan" `Quick test_access_index ]
