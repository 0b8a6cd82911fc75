(* Pipeline ASIC: stage processors are modeled as single-thread "cores"
   with line-rate header ops, plus per-stage match/action lookup engines.
   The capability gaps are expressed through the parameter tables: no
   payload_scan / crypto / software-checksum entries means those virtual
   calls have no home, and the mapping ILP returns infeasible. *)

let params : Params.t =
  {
    pname = "asic-pipeline-100g";
    core_op_cycles =
      Params.
        [ (Alu, 1.);
          (Mul, 2.);
          (Div, 64.);   (* sequential shift-subtract helper block *)
          (Fp, 1000.);  (* effectively unavailable; no emulation code *)
          (Move, 1.);
          (Branch, 1.);
          (Hash, 4.);
          (Load, 1.);
          (Store, 1.);
          (Atomic, 4.);
          (Call, 2.) ];
    fpu_emulation_factor = 1000.;
    core_vcalls =
      Params.
        [ (* Only header-level operations exist in the pipeline. *)
          (V_parse_header, Cost_fn.const 30.);
          (V_modify_header, Cost_fn.linear ~base:1. ~per_unit:1.);
          (V_checksum, Cost_fn.const 60.); (* incremental header checksum unit *)
          (V_table_lookup, Cost_fn.const 25.);
          (V_lpm_lookup, Cost_fn.const 30.); (* TCAM: constant-time *)
          (V_table_update, Cost_fn.const 40.);
          (V_meter, Cost_fn.const 10.);
          (V_flow_stats, Cost_fn.const 8.);
          (V_emit, Cost_fn.const 20.);
          (V_drop, Cost_fn.const 2.)
          (* No V_payload_scan, no V_crypto: DPI-class NFs cannot map. *) ];
    accel_vcalls =
      [ ( Unit_.Parse,
          Params.[ (V_parse_header, Cost_fn.const 15.) ] );
        ( Unit_.Lookup,
          (* TCAM/SRAM match stages. *)
          Params.
            [ (V_table_lookup, Cost_fn.const 20.);
              (V_lpm_lookup, Cost_fn.const 20.);
              (V_table_update, Cost_fn.const 35.) ] ) ];
    accel_sram_bytes = [ (Unit_.Lookup, 12 * 1024 * 1024) ];
    packet_ctm_threshold = 16 * 1024; (* cut-through buffers *)
    wire_ingress = Cost_fn.linear ~base:120. ~per_unit:0.15;
    wire_egress = Cost_fn.linear ~base:120. ~per_unit:0.15;
  }

let create () =
  let units = ref [] and unit_id = ref 0 in
  let add name kind stage =
    let u = { Unit_.id = !unit_id; name; kind; island = None; freq_mhz = 1000; stage } in
    incr unit_id;
    units := u :: !units;
    u
  in
  let parser_ = add "parser" (Unit_.Accelerator Unit_.Parse) 0 in
  let stages =
    List.init 4 (fun i ->
        add
          (Printf.sprintf "ma_stage%d" i)
          (Unit_.General_core { threads = 1; has_fpu = false })
          (i + 1))
  in
  let tcam = add "tcam" (Unit_.Accelerator Unit_.Lookup) 1 in
  let memories =
    [| { Memory.id = 0; name = "phv"; level = Memory.Local; size_bytes = 4096;
         read_cycles = 1; write_cycles = 1; atomic_cycles = 2; cache = None;
         island = None };
       { Memory.id = 1; name = "stage_sram"; level = Memory.Cluster;
         size_bytes = 2 * 1024 * 1024; read_cycles = 10; write_cycles = 10;
         atomic_cycles = 12; cache = None; island = None };
       { Memory.id = 2; name = "shared_sram"; level = Memory.Internal;
         size_bytes = 16 * 1024 * 1024; read_cycles = 30; write_cycles = 30;
         atomic_cycles = 40; cache = None; island = None };
       { Memory.id = 3; name = "buffer_dram"; level = Memory.External;
         size_bytes = 4 * 1024 * 1024 * 1024; read_cycles = 300;
         write_cycles = 300; atomic_cycles = 360; cache = None; island = None } |]
  in
  let hubs =
    [| { Hub.id = 0; name = "ingress"; kind = `Ingress; queue_capacity = 2048;
         discipline = Hub.Fifo; per_packet_cycles = 5 };
       { Hub.id = 1; name = "egress"; kind = `Egress; queue_capacity = 2048;
         discipline = Hub.Fifo; per_packet_cycles = 5 } |]
  in
  let links = ref [] in
  let link kind weight = links := { Link.kind; weight_cycles = weight } :: !links in
  List.iter
    (fun (s : Unit_.t) ->
      Array.iter (fun (m : Memory.t) -> link (Link.Access (s.id, m.id)) 0) memories)
    stages;
  List.iter
    (fun (a : Unit_.t) ->
      link (Link.Access (a.id, 1)) 0;
      link (Link.Access (a.id, 2)) 0)
    [ parser_; tcam ];
  link (Link.Hierarchy (0, 1)) 0;
  link (Link.Hierarchy (1, 2)) 0;
  link (Link.Hierarchy (2, 3)) 0;
  (* Strict pipeline edges: parser feeds stage 1; stage i feeds i+1. *)
  (match stages with
  | first :: _ -> link (Link.Pipeline (parser_.Unit_.id, first.Unit_.id)) 0
  | [] -> ());
  let rec chain = function
    | (a : Unit_.t) :: (b :: _ as rest) ->
        link (Link.Pipeline (a.Unit_.id, b.Unit_.id)) 0;
        chain rest
    | _ -> ()
  in
  chain stages;
  link (Link.Hub_edge (0, Link.U parser_.Unit_.id)) 0;
  (match List.rev stages with
  | last :: _ -> link (Link.Hub_edge (1, Link.U last.Unit_.id)) 0
  | [] -> ());
  Graph.make ~name:"asic-pipeline-100g" ~arch:Graph.On_path
    ~units:(Array.of_list (List.rev !units)) ~memories ~hubs ~links:(List.rev !links) ~params

let default = create ()
