(* Tests for the NF DSL frontend and the CIR: lexing, parsing, type
   checking, lowering, and pattern coarsening. *)

module L = Clara_cir.Lexer
module T = Clara_cir.Token
module Pr = Clara_cir.Parser
module Ast = Clara_cir.Ast
module Tc = Clara_cir.Typecheck
module Ir = Clara_cir.Ir
module Low = Clara_cir.Lower
module Pat = Clara_cir.Patterns
module P = Clara_lnic.Params

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Sample sources                                                      *)

let nat_src =
  {|
// Network address translation with a per-flow table.
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
      hdr.src_port = entry_value(ent) & 0xffff;
      checksum(pkt);
      emit(pkt);
    } else {
      drop(pkt);
    }
  }
}
|}

let raw_checksum_src =
  {|
/* checksum written as a raw loop: pattern matching should coarsen it */
nf raw_csum {
  handler process(pkt) {
    var hdr = parse_header(pkt);
    var sum = 0;
    for (i = 0; i < payload_len(pkt); i = i + 2) {
      sum = sum + payload_byte(pkt, i);
    }
    hdr.flags = sum & 0xffff;
    emit(pkt);
  }
}
|}

let raw_scan_src =
  {|
nf raw_scan {
  handler process(pkt) {
    var hdr = parse_header(pkt);
    var bad = 0;
    for (i = 0; i < payload_len(pkt); i = i + 1) {
      if (payload_byte(pkt, i) == 42) {
        bad = bad + 1;
      }
    }
    if (bad > 0) {
      drop(pkt);
    } else {
      emit(pkt);
    }
  }
}
|}

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

let test_lexer_basics () =
  let toks = L.tokenize "x = 42 + 0x10; // comment\n y" in
  let kinds = List.map (fun t -> t.T.kind) toks in
  check "kinds" true
    (kinds
    = [ T.IDENT "x"; T.ASSIGN; T.INT 42; T.OP "+"; T.INT 16; T.SEMI; T.IDENT "y"; T.EOF ])

let test_lexer_two_char_ops () =
  let kinds s = List.map (fun t -> t.T.kind) (L.tokenize s) in
  check "==" true (kinds "a == b" = [ T.IDENT "a"; T.OP "=="; T.IDENT "b"; T.EOF ]);
  check "<= <<" true (kinds "<= <<" = [ T.OP "<="; T.OP "<<"; T.EOF ]);
  check "sequence ==<=" true (kinds "==<=" = [ T.OP "=="; T.OP "<="; T.EOF ]);
  check "&& vs &" true (kinds "a && b & c" = [ T.IDENT "a"; T.OP "&&"; T.IDENT "b"; T.OP "&"; T.IDENT "c"; T.EOF ])

let test_lexer_positions () =
  let toks = L.tokenize "a\n  b" in
  match toks with
  | [ a; b; _eof ] ->
      check_int "a line" 1 a.T.pos.Ast.line;
      check_int "b line" 2 b.T.pos.Ast.line;
      check_int "b col" 3 b.T.pos.Ast.col
  | _ -> Alcotest.fail "expected three tokens"

let test_lexer_errors () =
  check "bad char" true
    (try ignore (L.tokenize "a $ b"); false with L.Error _ -> true);
  check "unterminated comment" true
    (try ignore (L.tokenize "/* foo"); false with L.Error _ -> true);
  check "float" true
    (List.map (fun t -> t.T.kind) (L.tokenize "1.5") = [ T.FLOAT 1.5; T.EOF ])

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

let test_parse_nat () =
  let p = Pr.parse nat_src in
  check "name" true (p.Ast.nf_name = "nat");
  check_int "one state" 1 (List.length p.Ast.states);
  let st = List.hd p.Ast.states in
  check "state name" true (st.Ast.s_name = "flow_table");
  check_int "entries" 65536 st.Ast.s_entries;
  check_int "entry bytes" 32 st.Ast.s_entry_bytes;
  check "handler" true (p.Ast.handler.Ast.h_packet = "pkt")

let test_parse_precedence () =
  let p = Pr.parse "nf t { handler h(pkt) { var x = 1 + 2 * 3; emit(pkt); } }" in
  match p.Ast.handler.Ast.h_body with
  | Ast.Var (_, Ast.Binop (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Int 3)), _) :: _ ->
      ()
  | _ -> Alcotest.fail "precedence: expected 1 + (2 * 3)"

let test_parse_else_if () =
  let src =
    "nf t { handler h(p) { var hdr = parse_header(p); \
     if (hdr.proto == 6) { emit(p); } \
     else if (hdr.proto == 17) { drop(p); } \
     else { emit(p); } } }"
  in
  let p = Pr.parse src in
  (* The chain nests: else branch holds a single If statement. *)
  let rec depth = function
    | Ast.If (_, _, Some [ (Ast.If _ as inner) ], _) -> 1 + depth inner
    | Ast.If (_, _, _, _) -> 1
    | _ -> 0
  in
  let top =
    List.find_map
      (function Ast.If _ as s -> Some s | _ -> None)
      p.Ast.handler.Ast.h_body
  in
  (match top with
  | Some s -> check_int "two-level chain" 2 (depth s)
  | None -> Alcotest.fail "no conditional parsed");
  (* And the whole thing lowers + predicts. *)
  ignore (Low.lower_source src)

let test_parse_errors () =
  let bad s = try ignore (Pr.parse s); false with Pr.Error _ -> true in
  check "no handler" true (bad "nf t { }");
  check "missing semi" true (bad "nf t { handler h(p) { var x = 1 } }");
  check "bad state kind" true (bad "nf t { state blob x; handler h(p) { } }");
  check "trailing junk" true (bad "nf t { handler h(p) { } } extra")

(* The one front-end error path: every failure of lower_source becomes a
   message with a stable prefix. *)
let test_of_source () =
  let err src =
    match Low.of_source src with
    | Ok _ -> Alcotest.fail "malformed source lowered"
    | Error e -> e
  in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  Alcotest.(check string) "lexer error" "lex error at 1:8: unexpected character '@'"
    (err "nf x { @@@ }");
  Alcotest.(check string) "parser error" "parse error at 1:33: expected ';' (found '}')"
    (err "nf t { handler h(p) { var x = 1 } }");
  check "type error" true
    (starts_with "NF DSL type errors:"
       (err "nf t { handler h(p) { var x = y; emit(p); } }"));
  match Low.of_source nat_src with
  | Ok ir -> check "valid NF lowers" true (ir.Ir.prog_name = "nat")
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Typecheck                                                           *)

let errors_of src =
  match Tc.check (Pr.parse src) with Ok () -> [] | Error es -> es

let test_typecheck_ok () =
  check "nat ok" true (errors_of nat_src = []);
  check "raw checksum ok" true (errors_of raw_checksum_src = []);
  check "raw scan ok" true (errors_of raw_scan_src = [])

let test_typecheck_catches () =
  let has_err src = errors_of src <> [] in
  check "unknown var" true
    (has_err "nf t { handler h(p) { var x = y; emit(p); } }");
  check "unknown builtin" true
    (has_err "nf t { handler h(p) { frobnicate(p); } }");
  check "bad state kind for lpm_match" true
    (has_err "nf t { state map m[8]; handler h(p) { var e = lpm_match(m, 1); emit(p); } }");
  check "unknown header field" true
    (has_err "nf t { handler h(p) { var h2 = parse_header(p); var x = h2.bogus; } }");
  check "non-bool condition" true
    (has_err "nf t { handler h(p) { if (1) { emit(p); } } }");
  check "arity" true (has_err "nf t { handler h(p) { emit(p, p); } }");
  check "state as value" true
    (has_err "nf t { state map m[8]; handler h(p) { var x = m; } }");
  check "duplicate state" true
    (has_err "nf t { state map m[8]; state map m[8]; handler h(p) { emit(p); } }");
  check "field of int" true
    (has_err "nf t { handler h(p) { var x = 1; var y = x.src_ip; } }")

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)

let test_lower_nat () =
  let ir = Low.lower_source nat_src in
  check "entry block exists" true (Array.length ir.Ir.blocks > 0);
  check_int "one state" 1 (List.length ir.Ir.states);
  let vcs = List.map (fun v -> v.Ir.vc) (Ir.vcalls_of ir) in
  check "has parse" true (List.mem P.V_parse_header vcs);
  check "has lookup" true (List.mem P.V_table_lookup vcs);
  check "has update" true (List.mem P.V_table_update vcs);
  check "has checksum" true (List.mem P.V_checksum vcs);
  check "has emit" true (List.mem P.V_emit vcs);
  check "has drop" true (List.mem P.V_drop vcs);
  (* The lookup knows its state and access counts. *)
  let lk = List.find (fun v -> v.Ir.vc = P.V_table_lookup) (Ir.vcalls_of ir) in
  check "lookup state" true (lk.Ir.state = Some "flow_table");
  check "lookup reads" true (lk.Ir.state_reads = Ir.S_const 2);
  check "lookup size symbolic" true (lk.Ir.size = Ir.S_state_entries "flow_table")

let test_lower_guards () =
  let ir = Low.lower_source nat_src in
  (* First conditional tests the protocol. *)
  let guards =
    Array.to_list ir.Ir.blocks
    |> List.filter_map (fun b ->
           match b.Ir.term with Ir.Cond { guard; _ } -> Some guard | _ -> None)
  in
  let rec mentions_proto = function
    | Ir.G_proto 6 -> true
    | Ir.G_not g -> mentions_proto g
    | Ir.G_or (a, b) -> mentions_proto a || mentions_proto b
    | _ -> false
  in
  check "has proto guard" true (List.exists mentions_proto guards);
  check "has table-hit guard" true
    (List.exists
       (function
         | Ir.G_table_hit "flow_table" | Ir.G_not (Ir.G_table_hit "flow_table") -> true
         | _ -> false)
       guards)

let test_lower_loop_trip () =
  let ir = Low.lower_source raw_scan_src in
  let trips =
    Array.to_list ir.Ir.blocks
    |> List.filter_map (fun b ->
           match b.Ir.term with Ir.Loop { trip; _ } -> Some trip | _ -> None)
  in
  check_int "one loop" 1 (List.length trips);
  check "trip = payload" true (List.hd trips = Ir.S_payload)

let test_lower_return_paths () =
  let src =
    "nf t { handler h(p) { var h2 = parse_header(p); if (h2.proto == 6) { drop(p); return; } emit(p); } }"
  in
  let ir = Low.lower_source src in
  (* Both a Ret on the drop path and a Ret at the end must exist. *)
  let rets =
    Array.to_list ir.Ir.blocks
    |> List.filter (fun b -> b.Ir.term = Ir.Ret)
    |> List.length
  in
  check "at least 2 returns" true (rets >= 2)

let test_lower_fp_class () =
  let src = "nf t { handler h(p) { var x = 1.5; var y = x * 2.0; emit(p); } }" in
  let ir = Low.lower_source src in
  let has_fp =
    Array.exists
      (fun b -> List.exists (fun i -> i = Ir.Op P.Fp) b.Ir.instrs)
      ir.Ir.blocks
  in
  check "float mul lowers to Fp" true has_fp

(* ------------------------------------------------------------------ *)
(* Patterns                                                            *)

let test_coarsen_checksum_loop () =
  let ir = Low.lower_source raw_checksum_src in
  let ir', rep = Pat.run ir in
  check_int "one loop coarsened" 1 rep.Pat.loops_coarsened;
  let vcs = List.map (fun v -> v.Ir.vc) (Ir.vcalls_of ir') in
  check "checksum vcall appears" true (List.mem P.V_checksum vcs);
  (* No Loop terminator should remain. *)
  check "no loops left" true
    (Array.for_all
       (fun b -> match b.Ir.term with Ir.Loop _ -> false | _ -> true)
       ir'.Ir.blocks)

let test_coarsen_scan_loop () =
  let ir = Low.lower_source raw_scan_src in
  let ir', rep = Pat.run ir in
  check_int "one loop coarsened" 1 rep.Pat.loops_coarsened;
  let vcs = List.map (fun v -> v.Ir.vc) (Ir.vcalls_of ir') in
  check "scan vcall appears" true (List.mem P.V_payload_scan vcs)

let test_coarsen_preserves_api_version () =
  (* An NF already using scan_payload() should not change. *)
  let src =
    "nf t { handler h(p) { var hdr = parse_header(p); var m = scan_payload(p, 64); if (m) { drop(p); } else { emit(p); } } }"
  in
  let ir = Low.lower_source src in
  let ir', rep = Pat.run ir in
  check_int "nothing to coarsen" 0 rep.Pat.loops_coarsened;
  check_int "same vcall count" (List.length (Ir.vcalls_of ir)) (List.length (Ir.vcalls_of ir'))

let test_api_and_raw_equivalent () =
  (* §3.3's point: framework-API and hand-written NFs reach the same
     shape.  After coarsening, the raw scan NF has the same vcall kinds
     as the API version. *)
  let api =
    "nf t { handler h(p) { var hdr = parse_header(p); var m = scan_payload(p, 64); if (m) { drop(p); } else { emit(p); } } }"
  in
  let via_api = Low.lower_source api in
  let via_raw, _ = Pat.run (Low.lower_source raw_scan_src) in
  let kinds ir =
    Ir.vcalls_of ir |> List.map (fun v -> v.Ir.vc) |> List.sort_uniq compare
  in
  check "same vcall kinds" true (kinds via_api = kinds via_raw)

let test_state_loops_not_coarsened () =
  (* A loop touching state must never be folded into a payload vcall. *)
  let src =
    "nf t { state map m[64]; handler h(p) { var hdr = parse_header(p); for (i = 0; i < payload_len(p); i = i + 1) { update(m, i, i); } emit(p); } }"
  in
  let ir = Low.lower_source src in
  let _, rep = Pat.run ir in
  check_int "no coarsening" 0 rep.Pat.loops_coarsened

let test_dead_block_elimination () =
  let src =
    "nf t { handler h(p) { drop(p); return; emit(p); } }"
  in
  let ir = Low.lower_source src in
  let ir', removed = Pat.eliminate_dead_blocks ir in
  check "removed some" true (removed > 0);
  (* Renumbering leaves a consistent CFG. *)
  Array.iteri
    (fun i b ->
      check_int "bid dense" i b.Ir.bid;
      List.iter
        (fun s -> check "successor in range" true (s >= 0 && s < Array.length ir'.Ir.blocks))
        (Ir.successors b.Ir.term))
    ir'.Ir.blocks

(* QCheck: random arithmetic expressions always lower without exceptions
   and produce only register-level ops. *)
let expr_gen =
  let open QCheck.Gen in
  let rec gen n =
    if n = 0 then map (fun i -> Printf.sprintf "%d" (abs i)) small_int
    else
      frequency
        [ (2, map (fun i -> Printf.sprintf "%d" (abs i)) small_int);
          (1,
           map2 (fun a b -> Printf.sprintf "(%s + %s)" a b) (gen (n - 1)) (gen (n - 1)));
          (1,
           map2 (fun a b -> Printf.sprintf "(%s * %s)" a b) (gen (n - 1)) (gen (n - 1)));
          (1,
           map2 (fun a b -> Printf.sprintf "(%s / (1 + %s))" a b) (gen (n - 1)) (gen (n - 1))) ]
  in
  gen 3

let prop_lower_arith =
  QCheck.Test.make ~name:"random arithmetic lowers cleanly" ~count:200
    (QCheck.make expr_gen)
    (fun e ->
      let src = Printf.sprintf "nf t { handler h(p) { var x = %s; emit(p); } }" e in
      let ir = Low.lower_source src in
      Array.for_all
        (fun b ->
          List.for_all
            (function
              | Ir.Op _ -> true
              | Ir.Vcall v -> v.Ir.vc = P.V_emit
              | _ -> false)
            b.Ir.instrs)
        ir.Ir.blocks)

let prop_parse_print_roundtrip =
  (* Printing a parsed program and reparsing it yields the same vcall
     structure after lowering. *)
  QCheck.Test.make ~name:"pp then reparse stable" ~count:20
    (QCheck.make (QCheck.Gen.oneofl [ nat_src; raw_checksum_src; raw_scan_src ]))
    (fun src ->
      let p = Pr.parse src in
      let printed = Format.asprintf "%a" Ast.pp_program p in
      let p2 = Pr.parse printed in
      let k1 = Low.lower p |> Ir.vcalls_of |> List.map (fun v -> v.Ir.vc) in
      let k2 = Low.lower p2 |> Ir.vcalls_of |> List.map (fun v -> v.Ir.vc) in
      k1 = k2)

let suite =
  [ Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
    Alcotest.test_case "lexer two-char ops" `Quick test_lexer_two_char_ops;
    Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
    Alcotest.test_case "lexer errors & floats" `Quick test_lexer_errors;
    Alcotest.test_case "parse NAT" `Quick test_parse_nat;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "of_source error messages" `Quick test_of_source;
    Alcotest.test_case "else-if chains" `Quick test_parse_else_if;
    Alcotest.test_case "typecheck accepts corpus" `Quick test_typecheck_ok;
    Alcotest.test_case "typecheck rejections" `Quick test_typecheck_catches;
    Alcotest.test_case "lower NAT vcalls" `Quick test_lower_nat;
    Alcotest.test_case "lower guards" `Quick test_lower_guards;
    Alcotest.test_case "lower loop trip counts" `Quick test_lower_loop_trip;
    Alcotest.test_case "lower return paths" `Quick test_lower_return_paths;
    Alcotest.test_case "lower float ops" `Quick test_lower_fp_class;
    Alcotest.test_case "coarsen checksum loop" `Quick test_coarsen_checksum_loop;
    Alcotest.test_case "coarsen scan loop" `Quick test_coarsen_scan_loop;
    Alcotest.test_case "API version untouched" `Quick test_coarsen_preserves_api_version;
    Alcotest.test_case "API == raw after coarsening (§3.3)" `Quick test_api_and_raw_equivalent;
    Alcotest.test_case "state loops not coarsened" `Quick test_state_loops_not_coarsened;
    Alcotest.test_case "dead block elimination" `Quick test_dead_block_elimination ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_lower_arith; prop_parse_print_roundtrip ]
