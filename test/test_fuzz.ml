(* End-to-end fuzzing: random structured NF programs pushed through the
   whole pipeline (parse → typecheck → lower → coarsen → dataflow → map →
   predict) must never crash, and the invariants must hold at every
   stage. *)

module W = Clara_workload
module L = Clara_lnic
module D = Clara_dataflow
module Ir = Clara_cir.Ir

let lnic = L.Netronome.default

(* ------------------------------------------------------------------ *)
(* Structured program generator                                         *)

(* Generates programs over a fixed set of declared names so they always
   typecheck: one map table "t", one lpm table "rt", one counter "cnt",
   int locals v0..v3 initialized up front. *)
let gen_program : string QCheck.Gen.t =
  let open QCheck.Gen in
  let int_expr depth =
    let rec go d =
      if d = 0 then
        oneof
          [ map string_of_int (int_range 0 100);
            oneofl [ "v0"; "v1"; "v2"; "v3"; "hdr.src_ip"; "hdr.dst_port"; "hdr.ttl" ] ]
      else
        let* a = go (d - 1) and* b = go (d - 1) in
        let* op = oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] in
        return (Printf.sprintf "(%s %s %s)" a op b)
    in
    go depth
  in
  let cond_expr =
    oneof
      [ (let* k = oneofl [ 6; 17; 1 ] in
         return (Printf.sprintf "hdr.proto == %d" k));
        return "(hdr.flags & 2) != 0";
        (let* e = int_expr 1 in
         let* k = int_range 0 50 in
         return (Printf.sprintf "%s > %d" e k)) ]
  in
  let stmt_leaf =
    oneof
      [ (let* e = int_expr 1 in
         let* v = oneofl [ "v0"; "v1"; "v2"; "v3" ] in
         return (Printf.sprintf "%s = %s;" v e));
        (let* e = int_expr 1 in
         return (Printf.sprintf "hdr.ttl = %s;" e));
        (let* k = int_expr 0 in
         return (Printf.sprintf "update(t, %s, 1);" k));
        return "v0 = entry_value(lookup(t, v1));";
        return "v2 = entry_value(lpm_match(rt, hdr.dst_ip));";
        return "v3 = count(cnt, v0);";
        return "meter(hdr.src_ip);";
        return "checksum_update(hdr);";
        return "v1 = hash(hdr.src_ip, hdr.dst_ip);";
        (* Early exits, also inside loop bodies: a [return] ends the
           packet wherever it sits. *)
        return "if ((hdr.flags & 2) != 0) { drop(pkt); return; }";
        return "if (hdr.proto == 17) { return; }" ]
  in
  let rec block depth budget =
    if budget <= 0 then return ""
    else
      let* n = int_range 1 (min 3 budget) in
      let* stmts =
        list_repeat n
          (if depth = 0 then stmt_leaf
           else
             frequency
               [ (4, stmt_leaf);
                 (1,
                  let* c = cond_expr in
                  let* t = block (depth - 1) (budget / 2) in
                  let* e = block (depth - 1) (budget / 2) in
                  return (Printf.sprintf "if (%s) { %s } else { %s }" c t e));
                 (1,
                  let* bound = int_range 1 8 in
                  let* body = block 0 1 in
                  return
                    (Printf.sprintf "for (i%d = 0; i%d < %d; i%d = i%d + 1) { %s }"
                       depth depth bound depth depth
                       (if body = "" then "v0 = v0 + 1;" else body))) ])
      in
      return (String.concat " " stmts)
  in
  let* body = block 2 6 in
  let* verdict = oneofl [ "emit(pkt);"; "drop(pkt);"; "if (v0 > 10) { emit(pkt); } else { drop(pkt); }" ] in
  return
    (Printf.sprintf
       {|nf fuzz {
  state map t[1024] entry 16;
  state lpm rt[512] entry 16;
  state counter cnt[256] entry 8;
  handler h(pkt) {
    var hdr = parse_header(pkt);
    var v0 = 0;
    var v1 = 1;
    var v2 = 2;
    var v3 = 3;
    %s
    %s
  }
}|}
       body verdict)

let profile = W.Profile.make ~packets:200 ~flow_count:50 ()

let prop_pipeline_never_crashes =
  QCheck.Test.make ~name:"random NFs run the whole pipeline" ~count:120
    (QCheck.make gen_program)
    (fun src ->
      match Clara.analyze_for_profile lnic ~source:src ~profile with
      | Error _ ->
          (* Structural mapping errors are acceptable outcomes; crashes
             are not (they escape as exceptions and fail the test). *)
          true
      | Ok a ->
          let p = Clara.predict_profile a profile in
          Float.is_finite p.Clara_predict.Latency.mean_cycles
          && p.Clara_predict.Latency.mean_cycles >= 0.)

let prop_lowered_cfg_well_formed =
  QCheck.Test.make ~name:"lowered CFGs are well-formed" ~count:120
    (QCheck.make gen_program)
    (fun src ->
      let ir = Clara_cir.Lower.lower_source src in
      let n = Array.length ir.Ir.blocks in
      let ids_ok =
        Array.for_all
          (fun (b : Ir.block) ->
            List.for_all (fun s -> s >= 0 && s < n) (Ir.successors b.Ir.term))
          ir.Ir.blocks
      in
      let entry_ok = ir.Ir.entry >= 0 && ir.Ir.entry < n in
      (* The block order, lowered and coarsened: entry first, each block
         once and after every block that steps or jumps to it, back
         edges aside. *)
      let order_ok (p : Ir.program) =
        let df = D.Build.of_ir p in
        let order = df.D.Graph.order in
        let pos = Array.make (Array.length p.Ir.blocks) (-1) in
        Array.iteri (fun i b -> pos.(b) <- i) order;
        let after b d = pos.(d) > pos.(b) in
        order.(0) = p.Ir.entry
        && List.length (List.sort_uniq compare (Array.to_list order)) = Array.length order
        && Array.for_all
             (fun b ->
               let steps, jumps =
                 match df.D.Graph.steps.(b) with
                 | D.Graph.Stop -> ([], [])
                 | D.Graph.Back { exit; _ } -> ([ exit ], [])
                 | D.Graph.Next d -> ([ d ], Ir.successors (Ir.block p b).Ir.term)
                 | D.Graph.Branch { then_; else_; _ } ->
                     ([ then_; else_ ], Ir.successors (Ir.block p b).Ir.term)
               in
               List.for_all (after b) (steps @ jumps))
             order
      in
      ids_ok && entry_ok && order_ok ir && order_ok (fst (Clara_cir.Patterns.run ir)))

let prop_coarsened_dataflow_is_dag =
  QCheck.Test.make ~name:"dataflow graphs are DAGs with consistent nodes" ~count:120
    (QCheck.make gen_program)
    (fun src ->
      let df = D.Build.of_source src in
      let order = D.Graph.topo_order df in
      List.length order = Array.length df.D.Graph.nodes
      && Array.for_all
           (fun (node : D.Node.t) ->
             node.D.Node.block >= 0
             && node.D.Node.block < Array.length df.D.Graph.cir.Ir.blocks)
           df.D.Graph.nodes)

let prop_print_reparse_equivalent =
  QCheck.Test.make ~name:"pp_program then reparse lowers identically" ~count:60
    (QCheck.make gen_program)
    (fun src ->
      let ast = Clara_cir.Parser.parse src in
      let printed = Format.asprintf "%a" Clara_cir.Ast.pp_program ast in
      let ast2 = Clara_cir.Parser.parse printed in
      let key a =
        let ir = Clara_cir.Lower.lower ast in
        ignore a;
        ( Array.length ir.Ir.blocks,
          Ir.instr_count ir,
          List.map (fun v -> v.Ir.vc) (Ir.vcalls_of ir) )
      in
      key ast = key ast2)

let prop_symexec_paths_finite =
  QCheck.Test.make ~name:"symbolic paths are bounded and sorted" ~count:60
    (QCheck.make gen_program)
    (fun src ->
      match Clara.analyze_for_profile lnic ~source:src ~profile with
      | Error _ -> true
      | Ok a ->
          let paths =
            Clara_predict.Symexec.enumerate ~max_paths:32 ~sizes:a.Clara.sizes lnic a.Clara.df
              a.Clara.mapping
          in
          List.length paths <= 32
          && (let costs = List.map (fun p -> p.Clara_predict.Symexec.cost_cycles) paths in
              costs = List.sort (fun x y -> compare y x) costs))

(* Guards a packet alone decides (protocol, flags): with no state or
   random draw behind a branch, every packet takes one symbolic path. *)
let rec packet_stable = function
  | Ir.G_proto _ | Ir.G_flag _ -> true
  | Ir.G_not g -> packet_stable g
  | Ir.G_or (a, b) -> packet_stable a && packet_stable b
  | Ir.G_table_hit _ | Ir.G_scan_match | Ir.G_count_exceeds | Ir.G_opaque -> false

let fuzz_profile ?(packets = 200) ~tcp payload =
  W.Profile.make ~tcp_fraction:tcp ~payload ~packets ~flow_count:50 ()

(* Every packet of a [profile] trace costs what one symbolic path costs
   at the packet's own sizes and agrees with it on emitting.  The paths
   are enumerated once per payload and header size. *)
let packets_follow_paths profile src =
  match Clara.analyze_for_profile lnic ~source:src ~profile with
  | Error _ -> true
  | Ok a ->
      let cir = a.Clara.df.D.Graph.cir in
      QCheck.assume
        (Array.for_all
           (fun (b : Ir.block) ->
             match b.Ir.term with
             | Ir.Cond { guard; _ } -> packet_stable guard
             | _ -> true)
           cir.Ir.blocks);
      let paths = Hashtbl.create 64 in
      let paths_at (pkt : W.Packet.t) =
        let payload = pkt.W.Packet.payload_bytes and header = W.Packet.header_bytes pkt in
        match Hashtbl.find_opt paths (payload, header) with
        | Some ps -> ps
        | None ->
            let sizes =
              { a.Clara.sizes with
                D.Cost.payload_bytes = float_of_int payload;
                packet_bytes = float_of_int (W.Packet.total_bytes pkt);
                header_bytes = float_of_int header }
            in
            let ps =
              Clara_predict.Symexec.enumerate ~max_paths:4096 ~sizes lnic a.Clara.df
                a.Clara.mapping
            in
            Hashtbl.add paths (payload, header) ps;
            ps
      in
      let lat = Clara_predict.Latency.create lnic a.Clara.df a.Clara.mapping in
      Array.for_all
        (fun pkt ->
          let r = Clara_predict.Latency.packet_latency lat pkt in
          List.exists
            (fun (p : Clara_predict.Symexec.path) ->
              p.Clara_predict.Symexec.cost_cycles = r.Clara_predict.Latency.cycles
              && p.Clara_predict.Symexec.emits = r.Clara_predict.Latency.emitted)
            (paths_at pkt))
        (W.Trace.synthesize profile).W.Trace.packets

let prop_packets_follow_paths =
  QCheck.Test.make ~name:"predicted packets follow an enumerated path" ~count:200
    (QCheck.make gen_program)
    (packets_follow_paths (fuzz_profile ~tcp:1.0 (W.Dist.Fixed 300)))

(* The same for TCP and UDP packets at payloads drawn from 0-1,500 B:
   nearly every packet has a size of its own, so each node's price
   table misses and, past 16 sizes, evicts, and a stale or misplaced
   entry, or a size key that lost the header, would price a packet off
   every path. *)
let prop_uniform_packets_follow_paths =
  QCheck.Test.make ~name:"packets of any size follow an enumerated path" ~count:40
    (QCheck.make gen_program)
    (packets_follow_paths (fuzz_profile ~packets:60 ~tcp:0.5 (W.Dist.Uniform (0, 1500))))

(* With every guard decided (each atom at 0 or 1, by [seed]), the
   expected visits are the one walk's: 1 on each node it runs, 0 on the
   rest, returns inside loop bodies included. *)
let prop_decided_visits_are_walk =
  QCheck.Test.make ~name:"decided guards: visits are the walk's visits" ~count:200
    (QCheck.pair (QCheck.make gen_program) QCheck.small_nat)
    (fun (src, seed) ->
      let df = D.Build.of_source src in
      let rec prob = function
        | Ir.G_not g -> 1. -. prob g
        | Ir.G_or (a, b) -> Float.max (prob a) (prob b)
        | atom -> float_of_int (Hashtbl.hash (seed, atom) land 1)
      in
      let walked = Array.make (Array.length df.D.Graph.nodes) false in
      D.Graph.walk df ()
        ~guard:(fun () g -> prob g = 1.)
        ~visit:(fun () n -> walked.(n.D.Node.id) <- true);
      Array.for_all2
        (fun w v -> v = if w then 1. else 0.)
        walked (D.Graph.visits df ~prob))

(* Static bounds contain every execution, the walk's half: on each
   offload target, every predicted packet of a random NF (payloads up to
   1400 B) costs a cycle count inside the bounds' service interval for
   its packet type and for "all", returns inside loop bodies included. *)
let bounds_profile =
  W.Profile.make ~tcp_fraction:0.5 ~payload:(W.Dist.Uniform (0, 1400)) ~packets:100
    ~flow_count:20 ~new_flow_syn:true ()

let prop_bounds_contain_predictions =
  QCheck.Test.make ~name:"predicted packets lie inside the static bounds" ~count:100
    (QCheck.make gen_program)
    (fun src ->
      List.for_all
        (fun lnic ->
          match Clara.analyze_for_profile lnic ~source:src ~profile:bounds_profile with
          | Error _ -> true
          | Ok a ->
              let module B = Clara_analysis.Bounds in
              let module I = Clara_analysis.Interval in
              let b = B.analyze ~lnic a.Clara.df.D.Graph.cir in
              let lat = Clara_predict.Latency.create lnic a.Clara.df a.Clara.mapping in
              Array.for_all
                (fun (pkt : W.Packet.t) ->
                  let c = (Clara_predict.Latency.packet_latency lat pkt).Clara_predict.Latency.cycles in
                  let types =
                    match pkt.W.Packet.proto with
                    | W.Packet.Tcp when W.Packet.is_syn pkt -> [ "all"; "tcp"; "tcp-syn" ]
                    | W.Packet.Tcp -> [ "all"; "tcp" ]
                    | W.Packet.Udp -> [ "all"; "udp" ]
                    | W.Packet.Other _ -> [ "all"; "other" ]
                  in
                  List.for_all
                    (fun ty ->
                      let s = (Option.get (B.find b ty)).B.tb_service in
                      (* Relative slack for summation order only. *)
                      let eps = 1e-9 *. Float.abs c in
                      I.lo s -. eps <= c && c <= I.hi s +. eps
                      || QCheck.Test.fail_reportf "%s, %s row: packet at %.3f cyc outside %a"
                           lnic.L.Graph.name ty c I.pp s)
                    types)
                (W.Trace.synthesize bounds_profile).W.Trace.packets)
        [ L.Netronome.default; L.Soc_nic.default; L.Bluefield.default ])

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pipeline_never_crashes;
      prop_lowered_cfg_well_formed;
      prop_coarsened_dataflow_is_dag;
      prop_print_reparse_equivalent;
      prop_symexec_paths_finite;
      prop_packets_follow_paths;
      prop_uniform_packets_follow_paths;
      prop_decided_visits_are_walk;
      prop_bounds_contain_predictions ]
