(* x86 host expressed as an LNIC graph: 3.4 GHz cores (Xeon-class, per
   the paper's §4 testbed), conventional cache hierarchy, no NIC
   accelerators.  Cycle counts below are x86-typical. *)

let pcie_roundtrip_ns = 1800.

let params : Params.t =
  {
    pname = "x86-host";
    core_op_cycles =
      Params.
        [ (Alu, 1.);
          (Mul, 3.);
          (Div, 20.);
          (Fp, 2.);
          (Move, 1.);
          (Branch, 1.);
          (Hash, 8.);
          (Load, 1.);
          (Store, 1.);
          (Atomic, 12.);
          (Call, 3.) ];
    fpu_emulation_factor = 1.;
    core_vcalls =
      Params.
        [ (V_parse_header, Cost_fn.const 60.);
          (V_modify_header, Cost_fn.linear ~base:1. ~per_unit:1.);
          (V_checksum, Cost_fn.linear ~base:120. ~per_unit:0.12);
          (V_crypto, Cost_fn.linear ~base:200. ~per_unit:1.5); (* AES-NI *)
          (V_table_lookup, Cost_fn.logarithmic ~base:40. ~log2_coeff:3.);
          (V_lpm_lookup, Cost_fn.linear ~base:400. ~per_unit:14.);
          (V_table_update, Cost_fn.logarithmic ~base:60. ~log2_coeff:3.);
          (V_payload_scan, Cost_fn.linear ~base:3000. ~per_unit:130.);
          (V_meter, Cost_fn.const 25.);
          (V_flow_stats, Cost_fn.const 20.);
          (V_emit, Cost_fn.linear ~base:150. ~per_unit:0.05);
          (V_drop, Cost_fn.const 5.) ];
    accel_vcalls = [];
    accel_sram_bytes = [];
    packet_ctm_threshold = 65536; (* packets always fit host buffers *)
    (* Kernel-bypass RX/TX path per packet: descriptor handling, DMA
       setup and completion polling — ~1.2 us at 3.4 GHz each way. *)
    wire_ingress = Cost_fn.linear ~base:4000. ~per_unit:0.8;
    wire_egress = Cost_fn.linear ~base:4000. ~per_unit:0.8;
  }

let create ?(cores = 6) () =
  if cores < 1 then invalid_arg "Host.create: need at least one core";
  let units =
    Array.init cores (fun i ->
        { Unit_.id = i;
          name = Printf.sprintf "xeon%d" i;
          kind = Unit_.General_core { threads = 2; has_fpu = true };
          island = None;
          freq_mhz = 3400;
          stage = 1 })
  in
  let memories =
    [| { Memory.id = 0; name = "l1"; level = Memory.Local; size_bytes = 32 * 1024;
         read_cycles = 4; write_cycles = 4; atomic_cycles = 12; cache = None;
         island = None };
       { Memory.id = 1; name = "l2"; level = Memory.Cluster;
         size_bytes = 256 * 1024; read_cycles = 12; write_cycles = 12;
         atomic_cycles = 20; cache = None; island = None };
       { Memory.id = 2; name = "llc"; level = Memory.Internal;
         size_bytes = 20 * 1024 * 1024; read_cycles = 40; write_cycles = 40;
         atomic_cycles = 60; cache = None; island = None };
       { Memory.id = 3; name = "dram"; level = Memory.External;
         size_bytes = 128 * 1024 * 1024 * 1024; read_cycles = 200;
         write_cycles = 200; atomic_cycles = 250;
         cache = Some { Memory.cache_bytes = 20 * 1024 * 1024; hit_cycles = 40 };
         island = None } |]
  in
  let hubs =
    [| { Hub.id = 0; name = "rx-queue"; kind = `Ingress; queue_capacity = 4096;
         discipline = Hub.Fifo; per_packet_cycles = 50 };
       { Hub.id = 1; name = "tx-queue"; kind = `Egress; queue_capacity = 4096;
         discipline = Hub.Fifo; per_packet_cycles = 50 } |]
  in
  let links = ref [] in
  let link kind weight = links := { Link.kind; weight_cycles = weight } :: !links in
  Array.iter
    (fun (c : Unit_.t) ->
      Array.iter (fun (m : Memory.t) -> link (Link.Access (c.id, m.id)) 0) memories;
      link (Link.Hub_edge (0, Link.U c.id)) 0)
    units;
  link (Link.Hierarchy (0, 1)) 0;
  link (Link.Hierarchy (1, 2)) 0;
  link (Link.Hierarchy (2, 3)) 0;
  Graph.make ~name:"x86-host" ~arch:Graph.Host_only
    ~units ~memories ~hubs ~links:(List.rev !links) ~params

let default = create ()
