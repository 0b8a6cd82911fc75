(* Tests for dataflow graph construction, flow weights, and the cost
   model. *)

module D = Clara_dataflow
module Ir = Clara_cir.Ir
module L = Clara_lnic
module P = Clara_lnic.Params

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

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

let dpi_src =
  {|
nf dpi {
  handler process(pkt) {
    var hdr = parse_header(pkt);
    var m = scan_payload(pkt, 64);
    if (m) { drop(pkt); } else { emit(pkt); }
  }
}
|}

let default_sizes =
  {
    D.Cost.payload_bytes = 300.;
    packet_bytes = 354.;
    header_bytes = 54.;
    state_entries = (fun _ -> 65536.);
    opaque_trip = 1.;
  }

let test_build_splits_vcalls () =
  let df = D.Build.of_source nat_src in
  (* Every vcall sits alone in its node. *)
  List.iter
    (fun n ->
      match n.D.Node.kind with
      | D.Node.N_vcall _ -> ()
      | D.Node.N_compute is ->
          check "no vcall inside compute node" true
            (List.for_all (function Ir.Vcall _ -> false | _ -> true) is))
    (Array.to_list df.D.Graph.nodes);
  check "has vcall nodes" true (D.Graph.vcall_nodes df <> [])

let test_dag_topo () =
  let df = D.Build.of_source nat_src in
  let order = D.Graph.topo_order df in
  check_int "order covers all nodes" (Array.length df.D.Graph.nodes) (List.length order);
  (* Every edge goes forward in the order. *)
  let pos = Hashtbl.create 32 in
  List.iteri (fun i n -> Hashtbl.add pos n i) order;
  List.iter
    (fun (s, d) ->
      check "edge forward in topo order" true (Hashtbl.find pos s < Hashtbl.find pos d))
    df.D.Graph.edges;
  check_int "entry first" df.D.Graph.entry (List.hd order)

let test_loops_are_removed () =
  let src =
    "nf t { handler h(p) { var hdr = parse_header(p); var s = 0; for (i = 0; i < 100; i = i + 1) { s = s + i * i; } emit(p); } }"
  in
  (* Use the raw lowering (no coarsening via of_ir) to keep the loop. *)
  let ir = Clara_cir.Lower.lower_source src in
  let df = D.Build.of_ir ir in
  (* topo_order must not raise: back edge dropped. *)
  ignore (D.Graph.topo_order df);
  (* Loop body node carries the trip count. *)
  let trips =
    Array.to_list df.D.Graph.nodes |> List.filter_map (fun n -> n.D.Node.loop_trip)
  in
  check "some node in loop" true (List.mem (Ir.S_const 100) trips)

let test_flow_weights_nat () =
  let df = D.Build.of_source nat_src in
  let w = D.Graph.visits df ~prob:Fixtures.default_probability in
  check "entry weight 1" true (w.(df.D.Graph.entry) = 1.);
  (* The emit node should carry ~the tcp+udp fraction (=1.0 here since
     both protocols proceed); the drop node the remainder (~0). *)
  let weight_of vc =
    Array.to_list df.D.Graph.nodes
    |> List.filter_map (fun n ->
           match n.D.Node.kind with
           | D.Node.N_vcall v when v.Ir.vc = vc -> Some w.(n.D.Node.id)
           | _ -> None)
    |> List.fold_left ( +. ) 0.
  in
  check "emit weight == proto mass" true (abs_float (weight_of P.V_emit -. 1.0) < 1e-6);
  check "drop weight ~0" true (weight_of P.V_drop < 1e-6);
  (* Update runs only on table misses (10% under default prob). *)
  check "update weight ~0.1" true (abs_float (weight_of P.V_table_update -. 0.1) < 1e-6)

let test_flow_weights_dpi () =
  let df = D.Build.of_source dpi_src in
  let w = D.Graph.visits df ~prob:Fixtures.default_probability in
  let weight_of vc =
    Array.to_list df.D.Graph.nodes
    |> List.filter_map (fun n ->
           match n.D.Node.kind with
           | D.Node.N_vcall v when v.Ir.vc = vc -> Some w.(n.D.Node.id)
           | _ -> None)
    |> List.fold_left ( +. ) 0.
  in
  (* 10% scan matches drop; 90% emit. *)
  check "drop 0.1" true (abs_float (weight_of P.V_drop -. 0.1) < 1e-6);
  check "emit 0.9" true (abs_float (weight_of P.V_emit -. 0.9) < 1e-6)

let test_cost_core_vs_accel () =
  let lnic = L.Netronome.default in
  let npu = List.hd (L.Graph.general_cores lnic) in
  let csum = Option.get (L.Graph.find_accelerator lnic L.Unit_.Checksum) in
  let ctx u =
    {
      D.Cost.lnic;
      exec_unit = u;
      state_region = (fun _ -> 4);
      state_footprint = (fun _ -> 2 * 1024 * 1024);
      packet_region = 2;
      sizes = { default_sizes with D.Cost.packet_bytes = 1000. };
    }
  in
  let vc = { Ir.vc = P.V_checksum; size = Ir.S_packet; state = None;
             state_reads = Ir.S_const 0; state_writes = Ir.S_const 0 } in
  let node = { D.Node.id = 0; kind = D.Node.N_vcall vc; block = 0; loop_trip = None } in
  let core_cost = Option.get (D.Cost.node_cycles (ctx npu) node) in
  let accel_cost = Option.get (D.Cost.node_cycles (ctx csum) node) in
  check "accel checksum ~300 @1000B" true (abs_float (accel_cost -. 300.) < 5.);
  check "core much slower" true (core_cost > accel_cost +. 1500.);
  (* Accel cannot run general compute. *)
  let comp = { D.Node.id = 1; kind = D.Node.N_compute [ Ir.Op P.Alu ]; block = 0; loop_trip = None } in
  check "accel refuses compute" true (D.Cost.node_cycles (ctx csum) comp = None);
  check "core accepts compute" true (D.Cost.node_cycles (ctx npu) comp <> None)

let test_cost_memory_placement_matters () =
  let lnic = L.Netronome.default in
  let npu = List.hd (L.Graph.general_cores lnic) in
  let ctm = (L.Netronome.ctm_of_island lnic 0).L.Memory.id in
  let emem = (L.Netronome.emem lnic).L.Memory.id in
  let mk_ctx region footprint =
    {
      D.Cost.lnic;
      exec_unit = npu;
      state_region = (fun _ -> region);
      state_footprint = (fun _ -> footprint);
      packet_region = ctm;
      sizes = default_sizes;
    }
  in
  let vc = { Ir.vc = P.V_table_lookup; size = Ir.S_state_entries "t"; state = Some "t";
             state_reads = Ir.S_const 2; state_writes = Ir.S_const 0 } in
  let node = { D.Node.id = 0; kind = D.Node.N_vcall vc; block = 0; loop_trip = None } in
  let small = 64 * 1024 in
  let in_ctm = Option.get (D.Cost.node_cycles (mk_ctx ctm small) node) in
  let in_emem = Option.get (D.Cost.node_cycles (mk_ctx emem small) node) in
  check "CTM-resident state is faster" true (in_ctm < in_emem);
  (* A small footprint benefits from the EMEM cache vs a huge one. *)
  let small_emem = Option.get (D.Cost.node_cycles (mk_ctx emem small) node) in
  let big_emem =
    Option.get (D.Cost.node_cycles (mk_ctx emem (64 * 1024 * 1024)) node)
  in
  check "cache-fit footprint faster in EMEM" true (small_emem < big_emem)

let test_cost_fpu_emulation () =
  let netro = L.Netronome.default in
  let soc = L.Soc_nic.default in
  let node =
    { D.Node.id = 0; kind = D.Node.N_compute [ Ir.Op P.Fp; Ir.Op P.Fp ]; block = 0;
      loop_trip = None }
  in
  let cost lnic =
    let u = List.hd (L.Graph.general_cores lnic) in
    Option.get
      (D.Cost.node_cycles
         { D.Cost.lnic; exec_unit = u; state_region = (fun _ -> 0);
           state_footprint = (fun _ -> 0); packet_region = 2; sizes = default_sizes }
         node)
  in
  check "fp on NPU (no fpu) >> fp on ARM" true (cost netro > 10. *. cost soc)

let test_eval_size () =
  let sizes = default_sizes in
  check "const" true (D.Cost.eval_size sizes (Ir.S_const 7) = 7.);
  check "payload" true (D.Cost.eval_size sizes Ir.S_payload = 300.);
  check "scaled" true (D.Cost.eval_size sizes (Ir.S_scaled (Ir.S_payload, 0.5)) = 150.);
  check "plus" true (D.Cost.eval_size sizes (Ir.S_plus (Ir.S_payload, -100)) = 200.);
  check "plus clamps" true (D.Cost.eval_size sizes (Ir.S_plus (Ir.S_const 2, -10)) = 0.);
  check "state entries" true
    (D.Cost.eval_size sizes (Ir.S_state_entries "t") = 65536.)

let prop_weights_bounded =
  QCheck.Test.make ~name:"node weights lie in [0, 1] for branch-only NFs" ~count:30
    (QCheck.make
       QCheck.Gen.(
         let* depth = int_range 0 3 in
         return depth))
    (fun depth ->
      (* Nested conditionals; no loops, so every weight is a probability. *)
      let rec body d =
        if d = 0 then "emit(p);"
        else
          Printf.sprintf "if (hdr.proto == 6) { %s } else { %s }" (body (d - 1))
            (body (d - 1))
      in
      let src =
        Printf.sprintf "nf t { handler h(p) { var hdr = parse_header(p); %s } }"
          (body depth)
      in
      let df = D.Build.of_source src in
      let w = D.Graph.visits df ~prob:Fixtures.default_probability in
      Array.for_all (fun x -> x >= -.1e-9 && x <= 1. +. 1e-9) w)

(* A [return] inside a loop body ends the packet: the mass that takes
   it never reaches the loop's exit, so the nodes after the loop weigh
   only the packets that finish the loop. *)
let test_return_in_loop_mass () =
  let df =
    D.Build.of_source
      {|nf t { handler h(pkt) { var hdr = parse_header(pkt);
          for (i = 0; i < 8; i = i + 1) { if (hdr.proto == 6) { drop(pkt); return; } }
          emit(pkt); } }|}
  in
  let weight w vc =
    Array.fold_left
      (fun acc (n : D.Node.t) ->
        match n.D.Node.kind with
        | D.Node.N_vcall v when v.Ir.vc = vc -> acc +. w.(n.D.Node.id)
        | _ -> acc)
      0. df.D.Graph.nodes
  in
  let all_tcp = D.Graph.visits df ~prob:(function Ir.G_proto 6 -> 1. | _ -> 0.) in
  Alcotest.(check (float 0.)) "all tcp: emit weighs 0" 0. (weight all_tcp P.V_emit);
  Alcotest.(check (float 0.)) "all tcp: emit mass 0" 0. (D.Graph.emit_mass df all_tcp);
  Alcotest.(check (float 0.)) "all tcp: drop weighs 1" 1. (weight all_tcp P.V_drop);
  let w = D.Graph.visits df ~prob:Fixtures.default_probability in
  Alcotest.(check (float 1e-9)) "80% tcp: emit weighs 0.2" 0.2 (weight w P.V_emit);
  Alcotest.(check (float 1e-9)) "80% tcp: drop weighs 0.8" 0.8 (weight w P.V_drop)

let suite =
  [ Alcotest.test_case "build splits vcalls" `Quick test_build_splits_vcalls;
    Alcotest.test_case "topological order" `Quick test_dag_topo;
    Alcotest.test_case "loops removed, trips recorded" `Quick test_loops_are_removed;
    Alcotest.test_case "flow weights (NAT)" `Quick test_flow_weights_nat;
    Alcotest.test_case "flow weights (DPI)" `Quick test_flow_weights_dpi;
    Alcotest.test_case "cost: core vs accelerator" `Quick test_cost_core_vs_accel;
    Alcotest.test_case "cost: memory placement" `Quick test_cost_memory_placement_matters;
    Alcotest.test_case "cost: FPU emulation" `Quick test_cost_fpu_emulation;
    Alcotest.test_case "size evaluation" `Quick test_eval_size;
    Alcotest.test_case "a return inside a loop carries no mass past it" `Quick
      test_return_in_loop_mass ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_weights_bounded ]
