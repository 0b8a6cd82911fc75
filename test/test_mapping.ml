(* Tests for the mapping ILP (§3.4) and the greedy baseline. *)

module D = Clara_dataflow
module L = Clara_lnic
module Map_ = Clara_mapping.Mapping
module Enc = Clara_mapping.Encode
module Gr = Clara_mapping.Greedy
module Ir = Clara_cir.Ir
module P = Clara_lnic.Params

let check = Alcotest.(check bool)

let nat_src =
  {|
nf nat {
  state map flow_table[65536] entry 32;
  handler process(pkt) {
    var hdr = parse_header(pkt);
    if (hdr.proto == 6 || hdr.proto == 17) {
      var key = hash(hdr.src_ip, hdr.src_port);
      var ent = lookup(flow_table, key);
      if (!found(ent)) {
        update(flow_table, key, hdr.src_ip);
      }
      hdr.src_ip = entry_value(ent);
      checksum(pkt);
      emit(pkt);
    } else {
      drop(pkt);
    }
  }
}
|}

let lpm_src entries =
  Printf.sprintf
    {|
nf lpm {
  state lpm routes[%d] entry 16;
  handler process(pkt) {
    var hdr = parse_header(pkt);
    var route = lpm_match(routes, hdr.dst_ip);
    if (found(route)) {
      hdr.ttl = hdr.ttl - 1;
      emit(pkt);
    } else {
      drop(pkt);
    }
  }
}
|}
    entries

let sizes =
  {
    D.Cost.payload_bytes = 300.;
    packet_bytes = 354.;
    header_bytes = 54.;
    state_entries = (fun _ -> 0.);
    opaque_trip = 1.;
  }

let prob = Fixtures.default_probability

let solve ?options src =
  let df = D.Build.of_source src in
  (df, Enc.map_nf ?options (L.Netronome.default) df ~sizes ~prob)

let unit_name lnic id = (L.Graph.unit_ lnic id).L.Unit_.name

let vcall_unit lnic df m vc =
  Array.to_list df.D.Graph.nodes
  |> List.find_map (fun n ->
         match n.D.Node.kind with
         | D.Node.N_vcall v when v.Ir.vc = vc ->
             Some (unit_name lnic m.Map_.node_unit.(n.D.Node.id))
         | _ -> None)

(* The paper's §3.4 example: parsing on the match/action engine, checksum
   on the accelerator, a <3MB flow table in the IMEM. *)
let test_nat_paper_example () =
  let lnic = L.Netronome.default in
  match solve nat_src with
  | _, Error e -> Alcotest.fail e
  | df, Ok m ->
      check "parse -> ma_engine" true (vcall_unit lnic df m P.V_parse_header = Some "ma_engine");
      check "checksum -> csum_engine" true
        (vcall_unit lnic df m P.V_checksum = Some "csum_engine");
      (match Map_.placement_of_state m "flow_table" with
      | Some (Map_.In_memory mem) ->
          check "flow table (2MB) in IMEM" true
            ((L.Graph.memory lnic mem).L.Memory.name = "imem")
      | Some (Map_.In_accel _) ->
          (* 2MB exactly fills the flow cache; either is defensible, but
             the lookup+update pair keeps it off the accel in practice. *)
          ()
      | None -> Alcotest.fail "flow_table unplaced")

let test_mapping_is_feasible () =
  let lnic = L.Netronome.default in
  match solve nat_src with
  | _, Error e -> Alcotest.fail e
  | df, Ok m ->
      (* Every node assigned a real unit; pipeline stages never decrease
         along edges. *)
      Array.iter
        (fun u -> check "unit id valid" true (u >= 0 && u < Array.length lnic.L.Graph.units))
        m.Map_.node_unit;
      List.iter
        (fun (s, d) ->
          let su = L.Graph.unit_ lnic m.Map_.node_unit.(s) in
          let du = L.Graph.unit_ lnic m.Map_.node_unit.(d) in
          check "stage monotone" true (su.L.Unit_.stage <= du.L.Unit_.stage))
        df.D.Graph.edges

let test_flow_cache_choice () =
  let lnic = L.Netronome.default in
  (* Small LPM table: the ILP should use the flow-cache accelerator. *)
  let df = D.Build.of_source (lpm_src 8192) in
  (match Enc.map_nf lnic df ~sizes ~prob with
  | Error e -> Alcotest.fail e
  | Ok m -> (
      check "lpm -> flow_cache" true (vcall_unit lnic df m P.V_lpm_lookup = Some "flow_cache");
      match Map_.placement_of_state m "routes" with
      | Some (Map_.In_accel _) -> ()
      | _ -> Alcotest.fail "routes should live in accel SRAM"));
  (* Forbidding the accelerator forces the software walk (the Figure 3a
     variant). *)
  let options = { Map_.default_options with Map_.disallowed_accels = [ L.Unit_.Lookup ] } in
  match Enc.map_nf ~options lnic df ~sizes ~prob with
  | Error e -> Alcotest.fail e
  | Ok m -> (
      check "lpm on an NPU" true
        (match vcall_unit lnic df m P.V_lpm_lookup with
        | Some name -> String.length name >= 3 && String.sub name 0 3 = "npu"
        | None -> false);
      match Map_.placement_of_state m "routes" with
      | Some (Map_.In_memory _) -> ()
      | _ -> Alcotest.fail "routes must be in a memory region")

let test_accel_ablation_increases_cost () =
  let lnic = L.Netronome.default in
  let df = D.Build.of_source nat_src in
  let base =
    match Enc.map_nf lnic df ~sizes ~prob with Ok m -> m | Error e -> Alcotest.fail e
  in
  let no_accels =
    let options =
      { Map_.default_options with
        Map_.disallowed_accels = [ L.Unit_.Parse; L.Unit_.Checksum; L.Unit_.Lookup; L.Unit_.Crypto ] }
    in
    match Enc.map_nf ~options lnic df ~sizes ~prob with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  check "accelerators reduce predicted cost" true
    (base.Map_.objective_cycles < no_accels.Map_.objective_cycles)

let test_greedy_never_beats_ilp () =
  let lnic = L.Netronome.default in
  List.iter
    (fun src ->
      let df = D.Build.of_source src in
      match (Enc.map_nf lnic df ~sizes ~prob, Gr.map_nf lnic df ~sizes ~prob) with
      | Ok ilp, Ok greedy ->
          check "ILP <= greedy (it optimizes the same objective)" true
            (ilp.Map_.objective_cycles <= greedy.Map_.objective_cycles +. 1.)
      | Error e, _ | _, Error e -> Alcotest.fail e)
    [ nat_src; lpm_src 8192; lpm_src 30000 ]

let test_state_too_big () =
  (* A state object larger than every region must be rejected. *)
  let src =
    "nf t { state map huge[1073741824] entry 64; handler h(p) { var hdr = parse_header(p); var e = lookup(huge, 1); emit(p); } }"
  in
  let lnic = L.Netronome.default in
  let df = D.Build.of_source src in
  match Enc.map_nf lnic df ~sizes ~prob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "64GB state should not fit anywhere"

let test_soc_has_no_ma_engine () =
  (* On the SoC NIC, parsing must run on a core (no Parse accel). *)
  let lnic = L.Soc_nic.default in
  let df = D.Build.of_source nat_src in
  match Enc.map_nf lnic df ~sizes ~prob with
  | Error e -> Alcotest.fail e
  | Ok m ->
      check "parse on an ARM core" true
        (match vcall_unit lnic df m P.V_parse_header with
        | Some name -> String.length name >= 3 && String.sub name 0 3 = "arm"
        | None -> false)

let suite =
  [ Alcotest.test_case "NAT mapping = paper's §3.4 example" `Quick test_nat_paper_example;
    Alcotest.test_case "mapping feasibility invariants" `Quick test_mapping_is_feasible;
    Alcotest.test_case "flow cache on/off (porting strategies)" `Quick test_flow_cache_choice;
    Alcotest.test_case "ablation: no accels costs more" `Quick test_accel_ablation_increases_cost;
    Alcotest.test_case "greedy never beats ILP" `Quick test_greedy_never_beats_ilp;
    Alcotest.test_case "oversized state rejected" `Quick test_state_too_big;
    Alcotest.test_case "SoC target: parse on cores" `Quick test_soc_has_no_ma_engine ]
