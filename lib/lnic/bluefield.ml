(* BlueField-class off-path DPU: a hardware eSwitch match-action engine
   terminates the wire, so cached flows never touch software; only
   flow-cache misses are upcalled over the internal fabric to the Arm
   core complex (charged via the fabric hub, see Graph.upcall_cycles).
   Latency structure follows the measured BlueField-2 numbers from
   "Demystifying Datapath Accelerator Enhanced Off-path SmartNIC":
   constant-time fast-path forwarding, a fixed upcall penalty to reach
   the cores, and payload-touching work paying an extra NOC/DMA transfer
   because the cores sit off the packet path. *)

let upcall_hub_cycles = 1000 (* eSwitch -> Arm upcall, ~0.4 us at 2.5 GHz *)

let params : Params.t =
  {
    pname = "bluefield-dpu-25g";
    core_op_cycles =
      Params.
        [ (Alu, 1.);
          (Mul, 3.);
          (Div, 10.);
          (Fp, 2.);
          (Move, 1.);
          (Branch, 1.);
          (Hash, 9.);
          (Load, 1.);
          (Store, 1.);
          (Atomic, 4.);
          (Call, 4.) ];
    fpu_emulation_factor = 1.; (* A72 cores have FPUs; factor unused *)
    core_vcalls =
      Params.
        [ (V_parse_header, Cost_fn.const 85.);
          (V_modify_header, Cost_fn.linear ~base:1. ~per_unit:2.);
          (V_checksum, Cost_fn.linear ~base:280. ~per_unit:0.28);
          (V_crypto, Cost_fn.linear ~base:240. ~per_unit:7.);
          (V_table_lookup, Cost_fn.logarithmic ~base:55. ~log2_coeff:3.);
          (V_lpm_lookup, Cost_fn.logarithmic ~base:600. ~log2_coeff:80.);
          (V_table_update, Cost_fn.logarithmic ~base:85. ~log2_coeff:3.);
          (* Payload bytes must cross the internal DMA fabric before the
             off-path cores can even look at them, so byte-touching work
             is far more expensive than its on-path SoC cousin. *)
          (V_payload_scan, Cost_fn.linear ~base:30000. ~per_unit:1800.);
          (V_meter, Cost_fn.const 38.);
          (V_flow_stats, Cost_fn.const 28.);
          (V_emit, Cost_fn.linear ~base:110. ~per_unit:0.05);
          (V_drop, Cost_fn.const 8.) ];
    accel_vcalls =
      [ (* The eSwitch prices only match-action-shaped work; anything it
           does not advertise (table updates, checksums, payload work)
           demotes the touching state to the Arm slow path. *)
        ( Unit_.Eswitch,
          Params.
            [ (V_parse_header, Cost_fn.const 18.);
              (V_modify_header, Cost_fn.linear ~base:10. ~per_unit:0.5);
              (V_table_lookup, Cost_fn.const 40.);
              (V_lpm_lookup, Cost_fn.const 55.);
              (V_meter, Cost_fn.const 14.);
              (V_flow_stats, Cost_fn.const 14.);
              (V_drop, Cost_fn.const 4.) ] );
        ( Unit_.Checksum,
          Params.[ (V_checksum, Cost_fn.linear ~base:80. ~per_unit:0.20) ] );
        ( Unit_.Crypto,
          Params.[ (V_crypto, Cost_fn.linear ~base:90. ~per_unit:0.7) ] ) ];
    accel_sram_bytes = [ (Unit_.Eswitch, 2 * 1024 * 1024) ];
    packet_ctm_threshold = 2048;
    wire_ingress = Cost_fn.linear ~base:1400. ~per_unit:1.0;
    wire_egress = Cost_fn.linear ~base:1400. ~per_unit:1.0;
  }

let create ?(cores = 8) () =
  if cores < 1 then invalid_arg "Bluefield.create: need at least one core";
  let units = ref [] and unit_id = ref 0 in
  let add_unit name kind stage =
    let u = { Unit_.id = !unit_id; name; kind; island = None; freq_mhz = 2500; stage } in
    incr unit_id;
    units := u :: !units;
    u
  in
  (* The eSwitch fronts the wire physically, but packets bounce between
     it and the Arm complex (miss upcall, then egress), so it shares the
     cores' pipeline stage like Netronome's flow-cache engine does. *)
  let eswitch = add_unit "eswitch" (Unit_.Accelerator Unit_.Eswitch) 1 in
  let arm_cores =
    List.init cores (fun i ->
        add_unit
          (Printf.sprintf "arm%d" i)
          (Unit_.General_core { threads = 2; has_fpu = true })
          1)
  in
  let csum_accel = add_unit "doca_csum" (Unit_.Accelerator Unit_.Checksum) 1 in
  let crypto_accel = add_unit "doca_crypto" (Unit_.Accelerator Unit_.Crypto) 1 in
  let memories =
    [| { Memory.id = 0; name = "l1"; level = Memory.Local; size_bytes = 64 * 1024;
         read_cycles = 4; write_cycles = 4; atomic_cycles = 8; cache = None;
         island = None };
       { Memory.id = 1; name = "l2"; level = Memory.Cluster;
         size_bytes = 1024 * 1024; read_cycles = 18; write_cycles = 18;
         atomic_cycles = 28; cache = None; island = None };
       (* The eSwitch's flow-cache tier: fast SRAM holding the resident
          match-action entries; its capacity bounds the fast path. *)
       { Memory.id = 2; name = "flow_cache"; level = Memory.Internal;
         size_bytes = 2 * 1024 * 1024; read_cycles = 12; write_cycles = 12;
         atomic_cycles = 20; cache = None; island = None };
       { Memory.id = 3; name = "dram"; level = Memory.External;
         size_bytes = 16 * 1024 * 1024 * 1024; read_cycles = 170;
         write_cycles = 170; atomic_cycles = 210;
         cache = Some { Memory.cache_bytes = 8 * 1024 * 1024; hit_cycles = 40 };
         island = None } |]
  in
  let hubs =
    [| { Hub.id = 0; name = "ingress"; kind = `Ingress; queue_capacity = 2048;
         discipline = Hub.Fifo; per_packet_cycles = 24 };
       { Hub.id = 1; name = "egress"; kind = `Egress; queue_capacity = 2048;
         discipline = Hub.Fifo; per_packet_cycles = 24 };
       (* The internal fabric doubles as the upcall queue: a flow-cache
          miss pays this hub's per-packet cost to reach the Arm cores. *)
       { Hub.id = 2; name = "upcall_fabric"; kind = `Fabric;
         queue_capacity = 512; discipline = Hub.Fifo;
         per_packet_cycles = upcall_hub_cycles };
       { Hub.id = 3; name = "pcie_dma"; kind = `Host_dma;
         queue_capacity = 256; discipline = Hub.Fifo;
         per_packet_cycles = 2200 (* ~0.9 us host round-trip *) } |]
  in
  let links = ref [] in
  let link kind weight = links := { Link.kind; weight_cycles = weight } :: !links in
  List.iter
    (fun (c : Unit_.t) ->
      Array.iter (fun (m : Memory.t) -> link (Link.Access (c.id, m.id)) 0) memories)
    arm_cores;
  link (Link.Access (eswitch.Unit_.id, 2)) 0;
  link (Link.Access (eswitch.Unit_.id, 3)) 0;
  List.iter
    (fun (a : Unit_.t) ->
      link (Link.Access (a.id, 1)) 0;
      link (Link.Access (a.id, 3)) 0)
    [ csum_accel; crypto_accel ];
  link (Link.Hierarchy (0, 1)) 0;
  link (Link.Hierarchy (1, 2)) 0;
  link (Link.Hierarchy (2, 3)) 0;
  (* Misses flow eSwitch -> Arm; finished slow-path packets re-enter the
     eSwitch for egress (same unit, so no extra pipeline edge needed). *)
  List.iter
    (fun (c : Unit_.t) ->
      link (Link.Pipeline (eswitch.Unit_.id, c.Unit_.id)) 0;
      link (Link.Pipeline (c.Unit_.id, csum_accel.Unit_.id)) 0;
      link (Link.Hub_edge (2, Link.U c.Unit_.id)) 0)
    arm_cores;
  link (Link.Hub_edge (0, Link.U eswitch.Unit_.id)) 0;
  link (Link.Hub_edge (1, Link.U eswitch.Unit_.id)) 0;
  link (Link.Hub_edge (2, Link.U eswitch.Unit_.id)) 0;
  link (Link.Hub_edge (3, Link.M 3)) 0;
  Graph.make ~name:"bluefield-dpu-25g" ~arch:Graph.Off_path
    ~units:(Array.of_list (List.rev !units)) ~memories ~hubs ~links:(List.rev !links) ~params

let default = create ()
