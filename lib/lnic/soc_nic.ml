(* ARM-SoC SmartNIC: plausible parameters for a BlueField-class device.
   Cores are ~2.5x the NPU clock and execute richer ISAs (hardware FP,
   faster div), but there is no match/action or flow-cache hardware and
   DRAM sits behind a conventional L1/L2 hierarchy. *)

let params : Params.t =
  {
    pname = "soc-armnic-25g";
    core_op_cycles =
      Params.
        [ (Alu, 1.);
          (Mul, 3.);
          (Div, 12.);
          (Fp, 2.);
          (Move, 1.);
          (Branch, 1.);
          (Hash, 10.);
          (Load, 1.);
          (Store, 1.);
          (Atomic, 4.);
          (Call, 4.) ];
    fpu_emulation_factor = 1.; (* has FPUs; factor unused *)
    core_vcalls =
      Params.
        [ (V_parse_header, Cost_fn.const 90.);
          (V_modify_header, Cost_fn.linear ~base:1. ~per_unit:2.);
          (V_checksum, Cost_fn.linear ~base:300. ~per_unit:0.30);
          (V_crypto, Cost_fn.linear ~base:250. ~per_unit:8.);
          (V_table_lookup, Cost_fn.logarithmic ~base:60. ~log2_coeff:3.);
          (V_lpm_lookup, Cost_fn.linear ~base:700. ~per_unit:22.);
          (V_table_update, Cost_fn.logarithmic ~base:90. ~log2_coeff:3.);
          (V_payload_scan, Cost_fn.linear ~base:5000. ~per_unit:260.);
          (V_meter, Cost_fn.const 40.);
          (V_flow_stats, Cost_fn.const 30.);
          (V_emit, Cost_fn.linear ~base:120. ~per_unit:0.05);
          (V_drop, Cost_fn.const 8.) ];
    accel_vcalls =
      [ ( Unit_.Checksum,
          Params.[ (V_checksum, Cost_fn.linear ~base:80. ~per_unit:0.20) ] );
        ( Unit_.Crypto,
          Params.[ (V_crypto, Cost_fn.linear ~base:100. ~per_unit:0.8) ] ) ];
    accel_sram_bytes = [];
    packet_ctm_threshold = 2048; (* larger on-chip packet buffer *)
    wire_ingress = Cost_fn.linear ~base:900. ~per_unit:1.6;
    wire_egress = Cost_fn.linear ~base:900. ~per_unit:1.6;
  }

let create ?(cores = 8) () =
  if cores < 1 then invalid_arg "Soc_nic.create: need at least one core";
  let units = ref [] and unit_id = ref 0 in
  let add_unit name kind stage =
    let u = { Unit_.id = !unit_id; name; kind; island = None; freq_mhz = 2000; stage } in
    incr unit_id;
    units := u :: !units;
    u
  in
  let arm_cores =
    List.init cores (fun i ->
        add_unit
          (Printf.sprintf "arm%d" i)
          (Unit_.General_core { threads = 2; has_fpu = true })
          1)
  in
  let csum_accel = add_unit "csum_engine" (Unit_.Accelerator Unit_.Checksum) 1 in
  let crypto_accel = add_unit "crypto_engine" (Unit_.Accelerator Unit_.Crypto) 1 in
  let memories =
    [| { Memory.id = 0; name = "l1"; level = Memory.Local; size_bytes = 64 * 1024;
         read_cycles = 4; write_cycles = 4; atomic_cycles = 8; cache = None;
         island = None };
       { Memory.id = 1; name = "l2"; level = Memory.Cluster;
         size_bytes = 1024 * 1024; read_cycles = 20; write_cycles = 20;
         atomic_cycles = 30; cache = None; island = None };
       { Memory.id = 2; name = "sram"; level = Memory.Internal;
         size_bytes = 8 * 1024 * 1024; read_cycles = 60; write_cycles = 60;
         atomic_cycles = 80; cache = None; island = None };
       { Memory.id = 3; name = "dram"; level = Memory.External;
         size_bytes = 16 * 1024 * 1024 * 1024; read_cycles = 180;
         write_cycles = 180; atomic_cycles = 220;
         cache = Some { Memory.cache_bytes = 8 * 1024 * 1024; hit_cycles = 45 };
         island = None } |]
  in
  let hubs =
    [| { Hub.id = 0; name = "ingress"; kind = `Ingress; queue_capacity = 1024;
         discipline = Hub.Fifo; per_packet_cycles = 30 };
       { Hub.id = 1; name = "egress"; kind = `Egress; queue_capacity = 1024;
         discipline = Hub.Fifo; per_packet_cycles = 30 } |]
  in
  let links = ref [] in
  let link kind weight = links := { Link.kind; weight_cycles = weight } :: !links in
  List.iter
    (fun (c : Unit_.t) ->
      Array.iter (fun (m : Memory.t) -> link (Link.Access (c.id, m.id)) 0) memories)
    arm_cores;
  List.iter
    (fun (a : Unit_.t) ->
      link (Link.Access (a.id, 1)) 0;
      link (Link.Access (a.id, 3)) 0)
    [ csum_accel; crypto_accel ];
  link (Link.Hierarchy (0, 1)) 0;
  link (Link.Hierarchy (1, 2)) 0;
  link (Link.Hierarchy (2, 3)) 0;
  List.iter
    (fun (c : Unit_.t) ->
      link (Link.Pipeline (c.Unit_.id, csum_accel.Unit_.id)) 0;
      link (Link.Hub_edge (0, Link.U c.Unit_.id)) 0)
    arm_cores;
  link (Link.Hub_edge (1, Link.U csum_accel.Unit_.id)) 0;
  Graph.make ~name:"soc-armnic-25g" ~arch:Graph.On_path
    ~units:(Array.of_list (List.rev !units)) ~memories ~hubs ~links:(List.rev !links) ~params

let default = create ()
