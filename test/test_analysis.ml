(* Tests for the static-analysis suite (lib/analysis): the block order
   the forward passes fold in, the four lint passes, sharing-verdict consumption by the
   mapping encoder, and the Unknown_state regression. *)

module Ir = Clara_cir.Ir
module Low = Clara_cir.Lower
module Pat = Clara_cir.Patterns
module A = Clara_analysis
module D = Clara_dataflow
module L = Clara_lnic
module Enc = Clara_mapping.Encode
module Gr = Clara_mapping.Greedy
module Map_ = Clara_mapping.Mapping
module Obs = Clara_obs.Registry

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let lower src = fst (Pat.run (Low.lower_source src))
let lint ?lnic src = A.Suite.run ?lnic (lower src)
let codes r = List.map (fun d -> d.A.Diag.code) r.A.Suite.diagnostics
let has_code c r = List.mem c (codes r)
let verdict r s = List.assoc_opt s r.A.Suite.sharing

(* ------------------------------------------------------------------ *)
(* Sample sources                                                      *)

let racy_src =
  {|
nf racy {
  state counter pkt_count[1] entry 8;
  handler process(pkt) {
    var hdr = parse_header(pkt);
    var v = state_read(pkt_count, 0);
    state_write(pkt_count, 0, v + 1);
    emit(pkt);
  }
}
|}

let atomic_src =
  {|
nf fixed {
  state counter pkt_count[1] entry 8;
  handler process(pkt) {
    var hdr = parse_header(pkt);
    state_add(pkt_count, 0, 1);
    emit(pkt);
  }
}
|}

let blind_src =
  {|
nf blind {
  state counter pkt_count[1] entry 8;
  handler process(pkt) {
    var hdr = parse_header(pkt);
    state_write(pkt_count, 0, 7);
    emit(pkt);
  }
}
|}

let readonly_src =
  {|
nf ro {
  state counter pkt_count[1] entry 8;
  handler process(pkt) {
    var hdr = parse_header(pkt);
    var v = state_read(pkt_count, 0);
    if (v > 100) { drop(pkt); } else { emit(pkt); }
  }
}
|}

let contradiction_src =
  {|
nf contra {
  handler process(pkt) {
    var hdr = parse_header(pkt);
    if (hdr.proto == 6) {
      if (hdr.proto == 17) {
        drop(pkt);
      } else {
        emit(pkt);
      }
    } else {
      emit(pkt);
    }
  }
}
|}

let implied_src =
  {|
nf implied {
  handler process(pkt) {
    var hdr = parse_header(pkt);
    if (hdr.proto == 6) {
      if (hdr.proto == 6) {
        emit(pkt);
      } else {
        drop(pkt);
      }
    } else {
      drop(pkt);
    }
  }
}
|}

let oversized_src =
  {|
nf oversized {
  state map big[1000000000] entry 64;
  handler process(pkt) {
    var hdr = parse_header(pkt);
    var e = lookup(big, hdr.src_ip);
    emit(pkt);
  }
}
|}

let while_src =
  {|
nf spin {
  handler process(pkt) {
    var hdr = parse_header(pkt);
    var i = 0;
    while (i < hdr.ttl) {
      i = i + 1;
    }
    emit(pkt);
  }
}
|}

(* ------------------------------------------------------------------ *)
(* Hand-built CIR helpers                                              *)

let mk bid instrs term = { Ir.bid; instrs; term }

let mk_prog ?(states = []) blocks =
  { Ir.prog_name = "hand"; entry = 0; blocks = Array.of_list blocks; states }

(* ------------------------------------------------------------------ *)
(* Block order                                                         *)

let diamond_with_orphan =
  mk_prog
    [
      mk 0 [] (Ir.Cond { guard = Ir.G_proto 6; then_ = 1; else_ = 2 });
      mk 1 [] (Ir.Jump 3);
      mk 2 [] (Ir.Jump 3);
      mk 3 [] Ir.Ret;
      mk 4 [] Ir.Ret;
    ]

let position o b =
  let rec go i = if o.(i) = b then i else go (i + 1) in
  go 0

let test_block_order_reachability () =
  let o = (D.Build.of_ir diamond_with_orphan).D.Graph.order in
  check_int "the four reached blocks" 4 (Array.length o);
  check "entry first" true (o.(0) = 0);
  check "orphan left out" false (Array.mem 4 o);
  check "join block after both arms" true
    (position o 3 > position o 1 && position o 3 > position o 2);
  (* A loop: the back edge is cut, so the exit comes after the body. *)
  let looped =
    mk_prog
      [
        mk 0 [] (Ir.Loop { body = 1; exit = 2; trip = Ir.S_const 4 });
        mk 1 [] (Ir.Jump 0);
        mk 2 [] Ir.Ret;
      ]
  in
  check "loop order" true ((D.Build.of_ir looped).D.Graph.order = [| 0; 1; 2 |])

let test_block_order_rejects_cycle () =
  (* A cycle outside a structured loop has no block order: building its
     graph raises instead of looping. *)
  let cyclic = mk_prog [ mk 0 [] (Ir.Jump 1); mk 1 [] (Ir.Jump 0) ] in
  match D.Build.of_ir cyclic with
  | _ -> Alcotest.fail "cyclic CFG ordered"
  | exception D.Graph.Walk_limit -> ()

(* ------------------------------------------------------------------ *)
(* simplify_guard                                                      *)

let test_simplify_guard () =
  let g6 = Ir.G_proto 6 in
  check "double negation" true
    (Ir.simplify_guard (Ir.G_not (Ir.G_not g6)) = g6);
  check "triple negation" true
    (Ir.simplify_guard (Ir.G_not (Ir.G_not (Ir.G_not g6))) = Ir.G_not g6);
  check "or with equal arms" true (Ir.simplify_guard (Ir.G_or (g6, g6)) = g6);
  check "not opaque folds" true
    (Ir.simplify_guard (Ir.G_not Ir.G_opaque) = Ir.G_opaque);
  check "atom untouched" true (Ir.simplify_guard g6 = g6);
  let pp g = Format.asprintf "%a" Ir.pp_guard g in
  check "pp_guard prints simplified form" true
    (pp (Ir.G_not (Ir.G_not g6)) = pp g6)

(* ------------------------------------------------------------------ *)
(* Sharing pass                                                        *)

let test_sharing_racy () =
  let r = lint racy_src in
  check "racy verdict" true (verdict r "pkt_count" = Some A.Sharing.Racy);
  check "CLARA001 reported" true (has_code "CLARA001" r);
  check "lint has errors" true (A.Suite.has_errors r);
  let d =
    List.find (fun d -> d.A.Diag.code = "CLARA001") r.A.Suite.diagnostics
  in
  check "error severity" true (d.A.Diag.severity = A.Diag.Error);
  check "names the state object" true (contains d.A.Diag.message "pkt_count");
  check "names the load block" true (contains d.A.Diag.message "load in b");
  check "anchored to a block" true (d.A.Diag.block <> None)

let test_sharing_atomic () =
  let r = lint atomic_src in
  check "atomic verdict" true (verdict r "pkt_count" = Some A.Sharing.Atomic);
  check "no errors" false (A.Suite.has_errors r);
  check "no race diagnostic" false (has_code "CLARA001" r);
  check "atomics info" true (has_code "CLARA003" r)

let test_sharing_blind_store () =
  let r = lint blind_src in
  check "blind store is racy" true
    (verdict r "pkt_count" = Some A.Sharing.Racy);
  check "CLARA002 reported" true (has_code "CLARA002" r)

let test_sharing_read_only_and_vcall () =
  let r = lint readonly_src in
  check "read-only verdict" true
    (verdict r "pkt_count" = Some A.Sharing.Read_only);
  check "no sharing diagnostics" false
    (has_code "CLARA001" r || has_code "CLARA002" r);
  match Clara_nfs.Corpus.find "nat" with
  | None -> Alcotest.fail "nat missing from corpus"
  | Some e ->
      let r = lint e.Clara_nfs.Corpus.source in
      check "table mutated via vcalls" true
        (verdict r "flow_table" = Some A.Sharing.Sync_vcall)

(* ------------------------------------------------------------------ *)
(* Feasibility pass                                                    *)

let test_feasibility_unsupported_vcall () =
  let dpi = Clara_nfs.Dpi.source in
  let on_asic = lint ~lnic:L.Asic_nic.default dpi in
  check "asic lacks payload scan" true (has_code "CLARA101" on_asic);
  check "unsupported vcall is an error" true (A.Suite.has_errors on_asic);
  let on_nfp = lint ~lnic:L.Netronome.default dpi in
  check "netronome supports it" false (has_code "CLARA101" on_nfp)

let test_feasibility_oversized_state () =
  let r = lint ~lnic:L.Netronome.default oversized_src in
  check "64GB table fits nowhere" true (has_code "CLARA102" r);
  check "oversized state is an error" true (A.Suite.has_errors r)

let test_feasibility_opaque_trip () =
  let r = lint ~lnic:L.Netronome.default while_src in
  check "un-coarsened while is flagged" true (has_code "CLARA103" r);
  (* Since the bounds pass, an opaque trip is also CLARA401: its
     worst-case latency is statically unbounded, which is an error. *)
  check "unbounded loop is an error" true (has_code "CLARA401" r);
  check "CLARA103 itself stays a warning" true
    (List.for_all
       (fun d -> d.A.Diag.code <> "CLARA103" || d.A.Diag.severity <> A.Diag.Error)
       r.A.Suite.diagnostics)

let test_feasibility_eswitch_demotion () =
  (* NAT's flow table needs table_update, which the eSwitch refuses:
     CLARA105 explains the slow-path demotion and names the vcall. *)
  let nat = Clara_nfs.Nat.source () in
  let r = lint ~lnic:L.Bluefield.default nat in
  check "CLARA105 on nat@bluefield" true (has_code "CLARA105" r);
  check "demotion is only a warning" false (A.Suite.has_errors r);
  let d =
    List.find (fun d -> d.A.Diag.code = "CLARA105") r.A.Suite.diagnostics
  in
  check "message names the missing vcall" true
    (contains d.A.Diag.message "table_update");
  (* No eSwitch on the target: the pass stays silent. *)
  let on_nfp = lint ~lnic:L.Netronome.default nat in
  check "no CLARA105 on netronome" false (has_code "CLARA105" on_nfp);
  (* A pure-lookup NF rides the fast path without demotion. *)
  let lpm = lint ~lnic:L.Bluefield.default (Clara_nfs.Lpm.source ~entries:1024) in
  check "lpm rides the fast path" false (has_code "CLARA105" lpm)

let test_feasibility_skipped_without_target () =
  let r = lint (Clara_nfs.Dpi.source) in
  check "no target recorded" true (r.A.Suite.target = None);
  check "no feasibility diagnostics" false (has_code "CLARA101" r)

(* ------------------------------------------------------------------ *)
(* Path analysis                                                       *)

let test_paths_contradiction () =
  let r = lint contradiction_src in
  check "nested proto 17 under proto 6" true (has_code "CLARA201" r);
  check "contradiction is a warning" false (A.Suite.has_errors r)

let test_paths_unreachable_block () =
  (* b1 is CFG-reachable but only via an edge whose facts contradict:
     proto==6 and then proto!=6 on the same path. *)
  let p =
    mk_prog
      [
        mk 0 [] (Ir.Cond { guard = Ir.G_proto 6; then_ = 3; else_ = 2 });
        mk 1 [] (Ir.Jump 4);
        mk 2 [] (Ir.Cond { guard = Ir.G_proto 6; then_ = 1; else_ = 4 });
        mk 3 [] (Ir.Jump 4);
        mk 4 [] Ir.Ret;
      ]
  in
  let ds = A.Paths.analyze (D.Build.of_ir p) in
  check "guard-unreachable block flagged" true
    (List.exists (fun d -> d.A.Diag.code = "CLARA202") ds)

let test_paths_implied_guard () =
  let r = lint implied_src in
  check "repeated guard implies else dead" true (has_code "CLARA203" r);
  check "implication is info-level" false (A.Suite.has_errors r)

let test_paths_clean_diamond () =
  (* Plain branching must not produce path diagnostics. *)
  let ds = A.Paths.analyze (D.Build.of_ir diamond_with_orphan) in
  let path_codes =
    List.filter
      (fun d -> d.A.Diag.code >= "CLARA201" && d.A.Diag.code <= "CLARA203")
      ds
  in
  (* The orphan b4 is CFG-unreachable, so CLARA202 (which only covers
     CFG-reachable blocks) must not fire for it. *)
  check "no false positives" true (path_codes = [])

(* ------------------------------------------------------------------ *)
(* Cost-sanity pass                                                    *)

let test_cost_quadratic_loop () =
  let p =
    mk_prog
      [
        mk 0 [] (Ir.Loop { body = 1; exit = 2; trip = Ir.S_payload });
        mk 1 [ Ir.Store Ir.L_packet ] (Ir.Jump 0);
        mk 2 [] Ir.Ret;
      ]
  in
  let ds = A.Cost_sanity.analyze p in
  check "packet store in payload loop" true
    (List.exists (fun d -> d.A.Diag.code = "CLARA301") ds);
  (* The same loop writing only local registers is fine. *)
  let clean =
    mk_prog
      [
        mk 0 [] (Ir.Loop { body = 1; exit = 2; trip = Ir.S_payload });
        mk 1 [ Ir.Store Ir.L_local ] (Ir.Jump 0);
        mk 2 [] Ir.Ret;
      ]
  in
  check "local store not flagged" false
    (List.exists
       (fun d -> d.A.Diag.code = "CLARA301")
       (A.Cost_sanity.analyze clean))

let dangling_prog =
  mk_prog [ mk 0 [ Ir.Load (Ir.L_state "ghost") ] Ir.Ret ]

let test_cost_dangling_state () =
  let ds = A.Cost_sanity.analyze dangling_prog in
  let d =
    match List.find_opt (fun d -> d.A.Diag.code = "CLARA302") ds with
    | Some d -> d
    | None -> Alcotest.fail "CLARA302 not reported"
  in
  check "dangling state is an error" true (d.A.Diag.severity = A.Diag.Error);
  check "names the state" true (contains d.A.Diag.message "ghost");
  let r = A.Suite.run dangling_prog in
  check "suite surfaces it" true (A.Suite.has_errors r)

(* ------------------------------------------------------------------ *)
(* Unknown_state regression                                            *)

let test_unknown_state_typed () =
  let raised =
    try
      ignore (Ir.state_obj dangling_prog "ghost");
      false
    with Ir.Unknown_state s -> s = "ghost"
  in
  check "state_obj raises typed exception" true raised;
  check "state_obj_opt returns None" true
    (Ir.state_obj_opt dangling_prog "ghost" = None)

let sizes =
  {
    D.Cost.payload_bytes = 300.;
    packet_bytes = 354.;
    header_bytes = 54.;
    state_entries = (fun _ -> 0.);
    opaque_trip = 1.;
  }

let prob = Fixtures.default_probability

let test_unknown_state_mapping_error () =
  (* A dangling state must surface as a mapping Error, not an escaped
     exception, from both the ILP and greedy paths. *)
  let df = D.Build.of_ir dangling_prog in
  let lnic = L.Netronome.default in
  (match Enc.map_nf lnic df ~sizes ~prob with
  | Ok _ -> Alcotest.fail "ILP mapping accepted a dangling state"
  | Error e -> check "ilp error names the state" true (contains e "ghost"));
  match Gr.map_nf lnic df ~sizes ~prob with
  | Ok _ -> Alcotest.fail "greedy mapping accepted a dangling state"
  | Error e -> check "greedy error names the state" true (contains e "ghost")

(* ------------------------------------------------------------------ *)
(* Mapping consumes sharing verdicts                                   *)

let test_mapping_hardens_racy_state () =
  let df = D.Build.of_ir (lower racy_src) in
  let lnic = L.Netronome.default in
  let counter name = Obs.counter_value Obs.default name in
  let base_racy = counter "mapping.sharing.racy_states" in
  let base_hard = counter "mapping.sharing.hardened_instrs" in
  (match Enc.map_nf lnic df ~sizes ~prob with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check_int "no hardening without verdicts"
    base_hard
    (counter "mapping.sharing.hardened_instrs");
  let options =
    { Map_.default_options with sharing = [ ("pkt_count", A.Sharing.Racy) ] }
  in
  (match Enc.map_nf ~options lnic df ~sizes ~prob with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check "racy state counted" true
    (counter "mapping.sharing.racy_states" > base_racy);
  (* The RMW pair (one Load + one Store) is re-priced as atomics. *)
  check "both instrs hardened" true
    (counter "mapping.sharing.hardened_instrs" >= base_hard + 2)

let test_pipeline_injects_lint_verdicts () =
  let lnic = L.Netronome.default in
  match Clara.analyze_for_profile lnic ~source:racy_src ~profile:Clara_workload.Profile.default with
  | Error e -> Alcotest.fail e
  | Ok a ->
      check "lint report attached" true
        (List.exists (fun d -> d.A.Diag.code = "CLARA001")
           a.Clara.lint.A.Suite.diagnostics);
      check "verdicts injected into mapping options" true
        (List.assoc_opt "pkt_count" a.Clara.options.Map_.sharing
        = Some A.Sharing.Racy)

(* ------------------------------------------------------------------ *)
(* Dead-block elimination                                              *)

let test_eliminate_dead_blocks () =
  let p, removed = Pat.eliminate_dead_blocks diamond_with_orphan in
  check_int "one orphan removed" 1 removed;
  check_int "blocks compacted" 4 (Array.length p.Ir.blocks);
  check "still ends in Ret" true
    (Array.exists (fun b -> b.Ir.term = Ir.Ret) p.Ir.blocks);
  let q, removed' = Pat.eliminate_dead_blocks p in
  check_int "idempotent" 0 removed';
  check_int "no further removal" (Array.length p.Ir.blocks)
    (Array.length q.Ir.blocks)

(* ------------------------------------------------------------------ *)
(* Whole-corpus lint                                                   *)

let test_corpus_lints_clean () =
  let lnic = L.Netronome.default in
  List.iter
    (fun e ->
      let r = lint ~lnic e.Clara_nfs.Corpus.source in
      (match A.Suite.errors r with
      | [] -> ()
      | d :: _ ->
          Alcotest.fail
            (Printf.sprintf "%s: %s %s" e.Clara_nfs.Corpus.name d.A.Diag.code
               d.A.Diag.message));
      check (e.Clara_nfs.Corpus.name ^ " has verdicts for all states") true
        (List.length r.A.Suite.sharing
        = List.length (lower e.Clara_nfs.Corpus.source).Ir.states))
    Clara_nfs.Corpus.all

(* ------------------------------------------------------------------ *)
(* Paths lattice: set semantics + fact decomposition                   *)

let test_paths_lattice_canonical () =
  let f6 = (Ir.G_proto 6, true) and f17 = (Ir.G_proto 17, false) in
  let fl2 = (Ir.G_flag 2, true) in
  let module P = A.Paths.L in
  let canonical = List.sort_uniq compare in
  (* Join intersects as sets and returns the canonical list, whatever
     the order of its inputs or their duplicates. *)
  check "join intersects" true
    (P.join (P.Facts [ fl2; f6; f17 ]) (P.Facts [ f17; f6 ])
    = P.Facts (canonical [ f6; f17 ]));
  check "join of reorderings is the canonical set" true
    (P.join (P.Facts [ f6; f17; fl2; f6 ]) (P.Facts [ fl2; f17; f6 ])
    = P.Facts (canonical [ f6; f17; fl2 ]));
  check "unreached is the identity" true
    (P.join P.Unreached (P.Facts [ f17; f6 ]) = P.Facts [ f17; f6 ]
    && P.join (P.Facts [ f6 ]) P.Unreached = P.Facts [ f6 ])

let test_facts_de_morgan () =
  let g6 = Ir.G_proto 6 and g17 = Ir.G_proto 17 in
  let sorted l = List.sort compare l in
  (* not (p6 || p17) = !p6 && !p17 *)
  check "negated disjunction splits" true
    (sorted (A.Paths.facts_of_guard (Ir.G_not (Ir.G_or (g6, g17))) true)
    = sorted [ (g6, false); (g17, false) ]);
  (* (p6 || p17) false — same thing reached through the polarity. *)
  check "false disjunction splits" true
    (sorted (A.Paths.facts_of_guard (Ir.G_or (g6, g17)) false)
    = sorted [ (g6, false); (g17, false) ]);
  (* not (not (p6 || p17)): double negation back to a true disjunction,
     which pins down neither arm. *)
  check "nested negation yields nothing" true
    (A.Paths.facts_of_guard (Ir.G_not (Ir.G_not (Ir.G_or (g6, g17)))) true = []);
  (* not ((not p6) || (not p17)) = p6 && p17. *)
  check "negation of negated arms asserts both" true
    (sorted (A.Paths.facts_of_guard (Ir.G_not (Ir.G_or (Ir.G_not g6, Ir.G_not g17))) true)
    = sorted [ (g6, true); (g17, true) ]);
  (* Mutually exclusive protocols conflict when both asserted... *)
  check "p6 and p17 conflict" true
    (A.Paths.conflicts (g6, true) (g17, true));
  (* ...but not when either is negative. *)
  check "p6 with not-p17 is consistent" false
    (A.Paths.conflicts (g6, true) (g17, false));
  check "same atom opposite polarity conflicts" true
    (A.Paths.conflicts (g6, true) (g6, false));
  (* assuming: a consistent extension keeps the set, a contradictory one
     kills the branch. *)
  check "assuming consistent" true
    (A.Paths.assuming [ (g6, true) ] g17 false <> None);
  check "assuming contradiction" true
    (A.Paths.assuming [ (g6, true) ] g17 true = None)

(* ------------------------------------------------------------------ *)
(* Interval domain + bounds analysis                                   *)

let test_interval_ops () =
  let module I = A.Interval in
  check "make inverted is bottom" true (I.is_bottom (I.make 2. 1.));
  check "join hull" true (I.equal (I.join (I.const 1.) (I.const 5.)) (I.make 1. 5.));
  check "meet overlap" true
    (I.equal (I.meet (I.make 0. 3.) (I.make 2. 9.)) (I.make 2. 3.));
  check "meet disjoint is bottom" true
    (I.is_bottom (I.meet (I.make 0. 1.) (I.make 2. 3.)));
  (* 0 * inf = 0: a never-executed block of unbounded cost is free. *)
  check "zero times top" true
    (I.equal (I.mul (I.const 0.) (I.make 1. Float.infinity)) (I.const 0.));
  check "mul ranges" true
    (I.equal (I.mul (I.make 0. 2.) (I.make 3. 4.)) (I.make 0. 8.))

let nat_ir () =
  fst (Pat.run (Low.lower_source (Clara_nfs.Nat.source ())))

(* A [return] inside a loop may skip the code after it: the TCP path of
   [Fixtures.early_exit_source] drops on the loop's first iteration, so
   its cost must lie inside the static TCP service bounds, whose lower
   end once charged the post-loop count, checksum and emit. *)
let test_bounds_contain_return_in_loop () =
  let module B = A.Bounds in
  let module Sym = Clara_predict.Symexec in
  let lnic = L.Netronome.default in
  let profile =
    Clara_workload.Profile.make ~tcp_fraction:1.0 ~packets:200 ~flow_count:50 ()
  in
  match Clara.analyze_for_profile lnic ~source:Fixtures.early_exit_source ~profile with
  | Error e -> Alcotest.fail e
  | Ok a ->
      let paths = Sym.enumerate ~sizes:a.Clara.sizes lnic a.Clara.df a.Clara.mapping in
      let tcp = List.find (fun p -> p.Sym.description = "tcp") paths in
      let b = B.analyze ~lnic a.Clara.df.D.Graph.cir in
      let row = Option.get (B.find b "tcp") in
      check "tcp path drops" false tcp.Sym.emits;
      check
        (Format.asprintf "tcp path %.1f cyc inside %a" tcp.Sym.cost_cycles A.Interval.pp
           row.B.tb_service)
        true
        (A.Interval.contains row.B.tb_service tcp.Sym.cost_cycles)

(* Only TCP packets can take the return inside [Fixtures.early_exit_source]'s
   loop, so for UDP and other packets the loop's exit, and the count,
   checksum and emit after it, keep their lower count: those rows start
   above TCP's, yet no higher than the UDP path's own cost. *)
let test_bounds_exit_kept_without_return () =
  let module B = A.Bounds in
  let module Sym = Clara_predict.Symexec in
  let lnic = L.Netronome.default in
  let profile =
    Clara_workload.Profile.make ~tcp_fraction:0.0 ~packets:200 ~flow_count:50 ()
  in
  match Clara.analyze_for_profile lnic ~source:Fixtures.early_exit_source ~profile with
  | Error e -> Alcotest.fail e
  | Ok a ->
      let paths = Sym.enumerate ~sizes:a.Clara.sizes lnic a.Clara.df a.Clara.mapping in
      let udp = List.find (fun p -> p.Sym.description = "not(tcp)") paths in
      let b = B.analyze ~lnic a.Clara.df.D.Graph.cir in
      let lo ptype = A.Interval.lo (Option.get (B.find b ptype)).B.tb_service in
      check "udp path emits" true udp.Sym.emits;
      List.iter
        (fun ptype ->
          check
            (Printf.sprintf "%s lower %.1f above tcp lower %.1f" ptype (lo ptype) (lo "tcp"))
            true
            (lo ptype > lo "tcp"))
        [ "udp"; "other" ];
      check
        (Printf.sprintf "udp lower %.1f at most udp path %.1f" (lo "udp") udp.Sym.cost_cycles)
        true
        (lo "udp" <= udp.Sym.cost_cycles)

let test_bounds_finite_example () =
  let module B = A.Bounds in
  let module I = A.Interval in
  let b = B.analyze ~lnic:L.Netronome.default (nat_ir ()) in
  check "no unbounded loops" true (b.B.bt_unbounded_loops = []);
  check_int "five type rows" 5 (List.length b.B.bt_per_type);
  List.iter
    (fun (row : B.type_bounds) ->
      check ("finite total for " ^ row.B.tb_type) true (I.is_finite row.B.tb_total);
      check ("positive lower for " ^ row.B.tb_type) true (I.lo row.B.tb_total > 0.);
      check ("ordered endpoints for " ^ row.B.tb_type) true
        (I.lo row.B.tb_total <= I.hi row.B.tb_total);
      (* Axis means tile the service interval. *)
      check ("service within total for " ^ row.B.tb_type) true
        (I.lo row.B.tb_service >= I.lo row.B.tb_total -. 1e-9
        && I.hi row.B.tb_service <= I.hi row.B.tb_total +. 1e-9))
    b.B.bt_per_type;
  (* A fixed-protocol class can never be looser than the union class. *)
  let all = Option.get (B.find b "all") and udp = Option.get (B.find b "udp") in
  check "udp upper <= all upper" true
    (I.hi udp.B.tb_total <= I.hi all.B.tb_total +. 1e-9);
  check "no CLARA401 on nat" true
    (List.for_all
       (fun d -> d.A.Diag.code <> "CLARA401")
       (B.lint ~lnic:L.Netronome.default (D.Build.of_ir (nat_ir ()))))

let test_bounds_unbounded_loop () =
  let module B = A.Bounds in
  let module I = A.Interval in
  let ir = fst (Pat.run (Low.lower_source while_src)) in
  check "loop reported" true (B.unbounded_loops (D.Build.of_ir ir) <> []);
  let diags = B.lint ~lnic:L.Netronome.default (D.Build.of_ir ir) in
  check "CLARA401 fires" true
    (List.exists
       (fun d -> d.A.Diag.code = "CLARA401" && d.A.Diag.severity = A.Diag.Error)
       diags);
  let b = B.analyze ~lnic:L.Netronome.default ir in
  let all = Option.get (B.find b "all") in
  check "upper bound infinite" true (I.hi all.B.tb_total = Float.infinity);
  check "lower bound finite and positive" true
    (Float.is_finite (I.lo all.B.tb_total) && I.lo all.B.tb_total > 0.)

let test_bounds_verdict () =
  let module B = A.Bounds in
  let module I = A.Interval in
  let b = B.analyze ~lnic:L.Netronome.default (nat_ir ()) in
  let all = Option.get (B.find b "all") in
  let lo_us = B.us_of b (I.lo all.B.tb_total)
  and hi_us = B.us_of b (I.hi all.B.tb_total) in
  check "meets above upper" true
    (B.verdict b ~slo_p99_us:(hi_us +. 1.) = B.Provably_meets);
  check "violates below lower" true
    (B.verdict b ~slo_p99_us:(lo_us /. 2.) = B.Provably_violates);
  check "unclear inside the interval" true
    (B.verdict b ~slo_p99_us:((lo_us +. hi_us) /. 2.) = B.Unclear);
  (* CLARA403 tracks the provable violation only. *)
  let has403 slo =
    List.exists
      (fun d -> d.A.Diag.code = "CLARA403")
      (B.lint ~lnic:L.Netronome.default ~slo_p99_us:slo (D.Build.of_ir (nat_ir ())))
  in
  check "CLARA403 on violation" true (has403 (lo_us /. 2.));
  check "no CLARA403 when unclear" false (has403 ((lo_us +. hi_us) /. 2.))

(* The point and range evaluators fold the same Cost terms: on every
   corpus NF, each node's point price on its mapped unit lies inside its
   range restricted to that unit, its Γ regions and its packet region,
   times the trip range. *)
let test_point_price_inside_range () =
  let module C = D.Cost in
  let module Cr = A.Cost_range in
  let module I = A.Interval in
  let module Pr = Clara_predict.Pricer in
  let module W = Clara_workload in
  let inside what x iv =
    let slack v = 1e-9 *. Float.abs v in
    if not (I.lo iv -. slack (I.lo iv) <= x && x <= I.hi iv +. slack (I.hi iv)) then
      Alcotest.failf "%s: point %.17g outside %a" what x I.pp iv
  in
  let tcp payload_bytes =
    { W.Packet.src_ip = 1l; dst_ip = 2l; src_port = 10; dst_port = 80;
      proto = W.Packet.Tcp; flags = 0; payload_bytes; arrival_ns = 0L }
  in
  List.iter
    (fun target ->
      let lnic = List.assoc target L.Targets.all in
      List.iter
        (fun (e : Clara_nfs.Corpus.entry) ->
          let name = e.Clara_nfs.Corpus.name in
          match
            Clara.analyze_for_profile lnic ~source:e.Clara_nfs.Corpus.source
              ~profile:W.Profile.default
          with
          | Error err -> Alcotest.failf "%s@%s: %s" name target err
          | Ok a ->
              let pricer = Pr.create ~mapping:a.Clara.mapping lnic a.Clara.df in
              List.iter
                (fun (label, (sizes : C.sizes)) ->
                  let range_sizes =
                    { Cr.payload_bytes = I.const sizes.C.payload_bytes;
                      packet_bytes = I.const sizes.C.packet_bytes;
                      header_bytes = I.const sizes.C.header_bytes;
                      state_entries = (fun s -> I.const (sizes.C.state_entries s));
                      opaque_trip = I.const sizes.C.opaque_trip }
                  in
                  Array.iter
                    (fun (n : D.Node.t) ->
                      let what =
                        Printf.sprintf "%s@%s %s n%d" name target label n.D.Node.id
                      in
                      let u = Pr.mapped_unit pricer n in
                      let ctx = Pr.cost_ctx pricer u sizes in
                      let rctx =
                        Cr.ctx lnic ~units:[ u ]
                          ~state_regions:(fun s -> [ ctx.C.state_region s ])
                          ~packet_regions:[ ctx.C.packet_region ]
                          ~state_footprint:ctx.C.state_footprint range_sizes
                      in
                      match (Pr.price pricer sizes n, Cr.node rctx n) with
                      | Some p, Some r ->
                          let trip =
                            match n.D.Node.loop_trip with
                            | None -> I.const 1.
                            | Some t -> Cr.trip range_sizes t
                          in
                          let total = I.add r.Cr.compute (I.add r.Cr.mem r.Cr.accel) in
                          inside (what ^ " total") p.C.total (I.mul trip total);
                          inside (what ^ " mem") p.C.mem (I.mul trip r.Cr.mem);
                          inside (what ^ " accel") p.C.accel (I.mul trip r.Cr.accel)
                      | None, _ -> Alcotest.failf "%s: no point price" what
                      | _, None -> Alcotest.failf "%s: no range price" what)
                    a.Clara.df.D.Graph.nodes)
                [ ("profile", Pr.sizes pricer a.Clara.sizes);
                  ("tcp64", Pr.packet_sizes pricer (tcp 64));
                  ("tcp1500", Pr.packet_sizes pricer (tcp 1500)) ])
        Clara_nfs.Corpus.all)
    [ "netronome"; "soc"; "bluefield" ]

let test_report_json_shape () =
  let r = lint ~lnic:L.Netronome.default racy_src in
  match A.Suite.to_json r with
  | Clara_util.Json.Obj fields ->
      let mem k = List.mem_assoc k fields in
      check "has program" true (mem "program");
      check "has summary" true (mem "summary");
      check "has sharing" true (mem "sharing");
      check "has diagnostics" true (mem "diagnostics")
  | _ -> Alcotest.fail "report JSON is not an object"

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "block order reachability" `Quick
      test_block_order_reachability;
    Alcotest.test_case "block order rejects a cycle" `Quick
      test_block_order_rejects_cycle;
    Alcotest.test_case "simplify_guard" `Quick test_simplify_guard;
    Alcotest.test_case "sharing: racy RMW" `Quick test_sharing_racy;
    Alcotest.test_case "sharing: atomic fix" `Quick test_sharing_atomic;
    Alcotest.test_case "sharing: blind store" `Quick test_sharing_blind_store;
    Alcotest.test_case "sharing: read-only and vcall" `Quick
      test_sharing_read_only_and_vcall;
    Alcotest.test_case "feasibility: unsupported vcall" `Quick
      test_feasibility_unsupported_vcall;
    Alcotest.test_case "feasibility: oversized state" `Quick
      test_feasibility_oversized_state;
    Alcotest.test_case "feasibility: opaque trip" `Quick
      test_feasibility_opaque_trip;
    Alcotest.test_case "feasibility: eswitch demotion" `Quick
      test_feasibility_eswitch_demotion;
    Alcotest.test_case "feasibility: skipped without target" `Quick
      test_feasibility_skipped_without_target;
    Alcotest.test_case "paths: contradiction" `Quick test_paths_contradiction;
    Alcotest.test_case "paths: guard-unreachable block" `Quick
      test_paths_unreachable_block;
    Alcotest.test_case "paths: implied guard" `Quick test_paths_implied_guard;
    Alcotest.test_case "paths: clean diamond" `Quick test_paths_clean_diamond;
    Alcotest.test_case "cost: quadratic payload loop" `Quick
      test_cost_quadratic_loop;
    Alcotest.test_case "cost: dangling state" `Quick test_cost_dangling_state;
    Alcotest.test_case "unknown state: typed exception" `Quick
      test_unknown_state_typed;
    Alcotest.test_case "unknown state: mapping error" `Quick
      test_unknown_state_mapping_error;
    Alcotest.test_case "mapping hardens racy state" `Quick
      test_mapping_hardens_racy_state;
    Alcotest.test_case "pipeline injects lint verdicts" `Quick
      test_pipeline_injects_lint_verdicts;
    Alcotest.test_case "eliminate_dead_blocks" `Quick
      test_eliminate_dead_blocks;
    Alcotest.test_case "corpus lints clean" `Quick test_corpus_lints_clean;
    Alcotest.test_case "paths lattice canonical sets" `Quick
      test_paths_lattice_canonical;
    Alcotest.test_case "guard facts De Morgan + conflicts" `Quick
      test_facts_de_morgan;
    Alcotest.test_case "interval domain ops" `Quick test_interval_ops;
    Alcotest.test_case "bounds: finite on example NF" `Quick
      test_bounds_finite_example;
    Alcotest.test_case "bounds: unbounded loop" `Quick
      test_bounds_unbounded_loop;
    Alcotest.test_case "bounds: SLO verdict three-way" `Quick
      test_bounds_verdict;
    Alcotest.test_case "cost: point price inside range price" `Quick
      test_point_price_inside_range;
    Alcotest.test_case "report json shape" `Quick test_report_json_shape;
    Alcotest.test_case "bounds: a return inside a loop may skip its exit" `Quick
      test_bounds_contain_return_in_loop;
    Alcotest.test_case "bounds: a loop exit stays when the type cannot return" `Quick
      test_bounds_exit_kept_without_return;
  ]
