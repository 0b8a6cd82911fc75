(* Construction of the Netronome-like LNIC.  Cycle parameters are the ones
   the paper reports in §2.1/§3.2; see netronome.mli. *)

let npu_freq_mhz = 800

let params : Params.t =
  {
    pname = "netronome-agilio-cx-40g";
    core_op_cycles =
      Params.
        [ (Alu, 2.);       (* metadata-style ALU ops: 2-5 cyc (§3.2) *)
          (Mul, 5.);
          (Div, 24.);
          (Fp, 4.);        (* nominal; NPUs have no FPU, factor applies *)
          (Move, 2.);
          (Branch, 1.);
          (Hash, 14.);     (* CRC-based hash of a small key *)
          (Load, 1.);      (* issue cost; region latency added at placement *)
          (Store, 1.);
          (Atomic, 2.);
          (Call, 6.) ];
    fpu_emulation_factor = 30.; (* software float emulation (§3.4) *)
    core_vcalls =
      Params.
        [ (* Header parse ~150 cyc incl. the CTM->local copy (§3.2). *)
          (V_parse_header, Cost_fn.const 150.);
          (V_modify_header, Cost_fn.linear ~base:2. ~per_unit:3.);
          (* Software checksum: the ingress engine needs ~300 cyc for a
             1000 B packet; NPU code pays ~1700 extra cycles of memory
             traffic (§2.1). *)
          (V_checksum, Cost_fn.linear ~base:1750. ~per_unit:0.55);
          (V_crypto, Cost_fn.linear ~base:400. ~per_unit:20.);
          (* Hash/exact-match table in software: constant probe work;
             region access latency is added per placement. *)
          (V_table_lookup, Cost_fn.logarithmic ~base:80. ~log2_coeff:4.);
          (V_lpm_lookup, Cost_fn.linear ~base:1000. ~per_unit:40.);
          (* Software match/action rule walk in DRAM grows linearly with
             the rule count — the Figure 3a regime. *)
          (V_table_update, Cost_fn.logarithmic ~base:120. ~log2_coeff:4.);
          (V_payload_scan, Cost_fn.linear ~base:8000. ~per_unit:450.);
          (V_meter, Cost_fn.const 60.);
          (V_flow_stats, Cost_fn.const 40.);
          (V_emit, Cost_fn.linear ~base:80. ~per_unit:0.05);
          (V_drop, Cost_fn.const 10.) ];
    accel_vcalls =
      [ ( Unit_.Parse,
          Params.[ (V_parse_header, Cost_fn.const 40.) ] );
        ( Unit_.Checksum,
          (* 300 cycles at 1000 B with data at the ingress engine (§2.1). *)
          Params.[ (V_checksum, Cost_fn.linear ~base:50. ~per_unit:0.25) ] );
        ( Unit_.Crypto,
          Params.[ (V_crypto, Cost_fn.linear ~base:120. ~per_unit:1.0) ] );
        ( Unit_.Lookup,
          (* Flow-cache SRAM: near-constant hit cost, orders of magnitude
             below the software match/action walk (§2.1). *)
          Params.
            [ (V_table_lookup, Cost_fn.const 130.);
              (V_lpm_lookup, Cost_fn.const 150.);
              (V_table_update, Cost_fn.const 180.) ] ) ];
    accel_sram_bytes = [ (Unit_.Lookup, 2 * 1024 * 1024) ];
    packet_ctm_threshold = 1024; (* <1 kB packets stay in CTM (§3.2) *)
    (* Store-and-forward DMA between the wire and packet memory; the
       per-byte slope is what gives payload-size dependence to NFs whose
       compute is size-independent (the Figure 3c regime). *)
    wire_ingress = Cost_fn.linear ~base:900. ~per_unit:2.0;
    wire_egress = Cost_fn.linear ~base:900. ~per_unit:2.0;
  }

let create ?(islands = 5) ?(npus_per_island = 12) () =
  if islands < 1 || npus_per_island < 1 then
    invalid_arg "Netronome.create: need at least one island and one NPU";
  let units = ref [] and unit_id = ref 0 in
  let add_unit name kind island stage =
    let u =
      { Unit_.id = !unit_id; name; kind; island; freq_mhz = npu_freq_mhz; stage }
    in
    incr unit_id;
    units := u :: !units;
    u
  in
  let npus =
    List.concat
      (List.init islands (fun isl ->
           List.init npus_per_island (fun i ->
               add_unit
                 (Printf.sprintf "npu%d.%d" isl i)
                 (Unit_.General_core { threads = 8; has_fpu = false })
                 (Some isl) 1)))
  in
  let parse_accel = add_unit "ma_engine" (Unit_.Accelerator Unit_.Parse) None 0 in
  (* NPUs issue flow-cache lookups mid-processing, so the lookup engine
     is not ingress-pinned like the parser. *)
  let lookup_accel = add_unit "flow_cache" (Unit_.Accelerator Unit_.Lookup) None 1 in
  let csum_accel = add_unit "csum_engine" (Unit_.Accelerator Unit_.Checksum) None 1 in
  let crypto_accel = add_unit "crypto_engine" (Unit_.Accelerator Unit_.Crypto) None 1 in
  let memories = ref [] and mem_id = ref 0 in
  let add_mem name level size read write atomic cache island =
    let m =
      { Memory.id = !mem_id; name; level; size_bytes = size; read_cycles = read;
        write_cycles = write; atomic_cycles = atomic; cache; island }
    in
    incr mem_id;
    memories := m :: !memories;
    m
  in
  let locals =
    List.init islands (fun isl ->
        add_mem (Printf.sprintf "local%d" isl) Memory.Local 4096 2 2 3 None (Some isl))
  in
  let ctms =
    List.init islands (fun isl ->
        add_mem
          (Printf.sprintf "ctm%d" isl)
          Memory.Cluster (256 * 1024) 50 50 60 None (Some isl))
  in
  let imem = add_mem "imem" Memory.Internal (4 * 1024 * 1024) 250 250 280 None None in
  let emem =
    add_mem "emem" Memory.External (8 * 1024 * 1024 * 1024) 500 500 550
      (Some { Memory.cache_bytes = 3 * 1024 * 1024; hit_cycles = 150 })
      None
  in
  let hubs =
    [| { Hub.id = 0; name = "ingress"; kind = `Ingress; queue_capacity = 512;
         discipline = Hub.Fifo; per_packet_cycles = 20 };
       { Hub.id = 1; name = "egress"; kind = `Egress; queue_capacity = 512;
         discipline = Hub.Fifo; per_packet_cycles = 20 };
       { Hub.id = 2; name = "fabric"; kind = `Fabric; queue_capacity = 256;
         discipline = Hub.Fifo; per_packet_cycles = 8 } |]
  in
  let links = ref [] in
  let link kind weight = links := { Link.kind; weight_cycles = weight } :: !links in
  (* NPU memory buses: local and own-island CTM at no extra weight, remote
     CTMs with a NUMA penalty, IMEM/EMEM through the fabric. *)
  List.iter
    (fun (npu : Unit_.t) ->
      let isl = Option.get npu.Unit_.island in
      List.iteri
        (fun i (l : Memory.t) -> if i = isl then link (Link.Access (npu.id, l.id)) 0)
        locals;
      List.iteri
        (fun i (c : Memory.t) ->
          link (Link.Access (npu.id, c.id)) (if i = isl then 0 else 60))
        ctms;
      link (Link.Access (npu.id, imem.Memory.id)) 0;
      link (Link.Access (npu.id, emem.Memory.id)) 0)
    npus;
  (* Accelerators read packet data from the CTMs (ingress side). *)
  List.iter
    (fun (acc : Unit_.t) ->
      List.iter (fun (c : Memory.t) -> link (Link.Access (acc.id, c.id)) 0) ctms;
      link (Link.Access (acc.id, imem.Memory.id)) 0;
      link (Link.Access (acc.id, emem.Memory.id)) 0)
    [ parse_accel; lookup_accel; csum_accel; crypto_accel ];
  (* Memory hierarchy: local ~> CTM ~> IMEM ~> EMEM. *)
  List.iteri
    (fun isl (l : Memory.t) ->
      link (Link.Hierarchy (l.id, (List.nth ctms isl).Memory.id)) 0)
    locals;
  List.iter
    (fun (c : Memory.t) -> link (Link.Hierarchy (c.id, imem.Memory.id)) 0)
    ctms;
  link (Link.Hierarchy (imem.Memory.id, emem.Memory.id)) 0;
  (* Pipeline: ingress engines feed the NPU stage, NPUs feed the egress-side
     checksum engine; crypto sits alongside the NPU stage. *)
  List.iter
    (fun (npu : Unit_.t) ->
      link (Link.Pipeline (parse_accel.Unit_.id, npu.id)) 0;
      link (Link.Pipeline (lookup_accel.Unit_.id, npu.id)) 0;
      link (Link.Pipeline (npu.id, csum_accel.Unit_.id)) 0)
    npus;
  (* Hub attachments. *)
  link (Link.Hub_edge (0, Link.U parse_accel.Unit_.id)) 0;
  link (Link.Hub_edge (0, Link.U lookup_accel.Unit_.id)) 0;
  List.iter (fun (npu : Unit_.t) -> link (Link.Hub_edge (2, Link.U npu.id)) 0) npus;
  link (Link.Hub_edge (1, Link.U csum_accel.Unit_.id)) 0;
  Graph.make ~name:"netronome-agilio-cx-40g" ~arch:Graph.On_path
    ~units:(Array.of_list (List.rev !units))
    ~memories:(Array.of_list (List.rev !memories)) ~hubs ~links:(List.rev !links) ~params

let default = create ()

let ctm_of_island g isl =
  match
    Array.to_list g.Graph.memories
    |> List.find_opt (fun m ->
           m.Memory.level = Memory.Cluster && m.Memory.island = Some isl)
  with
  | Some m -> m
  | None -> raise Not_found

let find_level g level =
  match
    Array.to_list g.Graph.memories
    |> List.find_opt (fun m -> m.Memory.level = level)
  with
  | Some m -> m
  | None -> raise Not_found

let imem g = find_level g Memory.Internal
let emem g = find_level g Memory.External
