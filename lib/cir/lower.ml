module P = Clara_lnic.Params

(* ------------------------------------------------------------------ *)
(* CFG builder                                                         *)

type proto_block = { mutable instrs : Ir.instr list (* reversed *); mutable term : Ir.terminator option }

type builder = { mutable blocks : proto_block array; mutable nblocks : int }

let new_block b =
  if b.nblocks = Array.length b.blocks then
    b.blocks <-
      Array.append b.blocks (Array.init (max 8 b.nblocks) (fun _ -> { instrs = []; term = None }));
  let id = b.nblocks in
  b.blocks.(id) <- { instrs = []; term = None };
  b.nblocks <- id + 1;
  id

let emit b bid i = b.blocks.(bid).instrs <- i :: b.blocks.(bid).instrs

let set_term b bid t =
  match b.blocks.(bid).term with
  | Some _ -> failwith "Lower: block already terminated"
  | None -> b.blocks.(bid).term <- Some t

let finalize b =
  Array.init b.nblocks (fun i ->
      { Ir.bid = i;
        instrs = List.rev b.blocks.(i).instrs;
        term = Option.value ~default:Ir.Ret b.blocks.(i).term })

(* ------------------------------------------------------------------ *)
(* Lowering environment                                                *)

(* What we statically know about a local variable: enough to extract
   guards and loop trip counts, nothing more. *)
type origin =
  | O_plain
  | O_const of int
  | O_lookup of string  (* result of lookup/lpm_match on this state *)
  | O_scan              (* result of scan_payload *)
  | O_count             (* result of count/meter *)
  | O_size of Ir.size_expr (* payload_len etc. *)

type env = {
  consts : (string * int) list;
  states : (string * Ast.state_decl) list;
  mutable vars : (string * (Ast.typ * origin)) list;
  b : builder;
}

let var_info env x = List.assoc_opt x env.vars

let set_var env x info =
  env.vars <- (x, info) :: List.remove_assoc x env.vars

let typ_of env (e : Ast.expr) : Ast.typ =
  (* Minimal re-typing for op-class selection; programs reaching lowering
     have already typechecked. *)
  let rec go = function
    | Ast.Int _ -> Ast.T_int
    | Ast.Float _ -> Ast.T_float
    | Ast.Bool _ -> Ast.T_bool
    | Ast.Ident x -> (
        match var_info env x with
        | Some (t, _) -> t
        | None -> Ast.T_int (* consts *))
    | Ast.Field _ -> Ast.T_int
    | Ast.Call (fn, _) -> (
        match Builtins.lookup fn with Some sg -> sg.Builtins.result | None -> Ast.T_int)
    | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), a, b2) ->
        if go a = Ast.T_float || go b2 = Ast.T_float then Ast.T_float else Ast.T_int
    | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or), _, _) ->
        Ast.T_bool
    | Ast.Binop (_, _, _) -> Ast.T_int
    | Ast.Unop (Ast.Not, _) -> Ast.T_bool
    | Ast.Unop (Ast.Neg, a) -> go a
    | Ast.Unop (Ast.Bnot, _) -> Ast.T_int
  in
  go e

(* ------------------------------------------------------------------ *)
(* Static size evaluation (for trip counts and vcall sizes)            *)

let rec static_size env (e : Ast.expr) : Ir.size_expr option =
  match e with
  | Ast.Int n -> Some (Ir.S_const n)
  | Ast.Ident x -> (
      match List.assoc_opt x env.consts with
      | Some n -> Some (Ir.S_const n)
      | None -> (
          match var_info env x with
          | Some (_, O_const n) -> Some (Ir.S_const n)
          | Some (_, O_size s) -> Some s
          | _ -> None))
  | Ast.Call ("payload_len", _) -> Some Ir.S_payload
  | Ast.Call ("packet_len", _) -> Some Ir.S_packet
  | Ast.Binop (Ast.Add, a, b) -> (
      match (static_size env a, static_size env b) with
      | Some (Ir.S_const x), Some (Ir.S_const y) -> Some (Ir.S_const (x + y))
      | Some s, Some (Ir.S_const y) | Some (Ir.S_const y), Some s -> Some (Ir.S_plus (s, y))
      | _ -> None)
  | Ast.Binop (Ast.Sub, a, b) -> (
      match (static_size env a, static_size env b) with
      | Some (Ir.S_const x), Some (Ir.S_const y) -> Some (Ir.S_const (x - y))
      | Some s, Some (Ir.S_const y) -> Some (Ir.S_plus (s, -y))
      | _ -> None)
  | Ast.Binop (Ast.Mul, a, b) -> (
      match (static_size env a, static_size env b) with
      | Some (Ir.S_const x), Some (Ir.S_const y) -> Some (Ir.S_const (x * y))
      | Some s, Some (Ir.S_const y) | Some (Ir.S_const y), Some s ->
          Some (Ir.S_scaled (s, float_of_int y))
      | _ -> None)
  | Ast.Binop (Ast.Div, a, b) -> (
      match (static_size env a, static_size env b) with
      | Some (Ir.S_const x), Some (Ir.S_const y) when y <> 0 -> Some (Ir.S_const (x / y))
      | Some s, Some (Ir.S_const y) when y <> 0 -> Some (Ir.S_scaled (s, 1. /. float_of_int y))
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Expression lowering: emits cost-bearing instructions               *)

let binop_class typ (op : Ast.binop) : P.op_class =
  let fp = typ = Ast.T_float in
  match op with
  | Ast.Add | Ast.Sub -> if fp then P.Fp else P.Alu
  | Ast.Mul -> if fp then P.Fp else P.Mul
  | Ast.Div | Ast.Mod -> if fp then P.Fp else P.Div
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      if fp then P.Fp else P.Alu
  | Ast.And | Ast.Or -> P.Alu
  | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Shl | Ast.Shr -> P.Alu

let rec lower_expr env bid (e : Ast.expr) : origin =
  match e with
  | Ast.Int n -> O_const n
  | Ast.Float _ | Ast.Bool _ -> O_plain
  | Ast.Ident x -> (
      match List.assoc_opt x env.consts with
      | Some n -> O_const n
      | None -> (
          match var_info env x with Some (_, o) -> o | None -> O_plain))
  | Ast.Field (_, _) ->
      (* Header fields live in local memory after parsing; a field read is
         a metadata move (§3.2: 2-5 cycles). *)
      emit env.b bid (Ir.Op P.Move);
      O_plain
  | Ast.Call (fn, args) -> lower_call env bid fn args
  | Ast.Binop (op, a, b) ->
      let _ = lower_expr env bid a in
      let _ = lower_expr env bid b in
      let t = typ_of env e in
      let t = if t = Ast.T_bool then (if typ_of env a = Ast.T_float then Ast.T_float else Ast.T_int) else t in
      emit env.b bid (Ir.Op (binop_class t op));
      O_plain
  | Ast.Unop (_, a) ->
      let _ = lower_expr env bid a in
      emit env.b bid (Ir.Op (if typ_of env a = Ast.T_float then P.Fp else P.Alu));
      O_plain

and lower_args env bid args = List.iter (fun a -> ignore (lower_expr env bid a)) args

and state_name = function
  | Ast.Ident n -> n
  | _ -> failwith "Lower: state argument must be a name"

(* A dangling state name in a builtin call is a typed error at lower
   time (typechecked sources never hit this; hand-built ASTs can). *)
and checked_state env arg =
  let st = state_name arg in
  if not (List.mem_assoc st env.states) then raise (Ir.Unknown_state st);
  st

and lower_call env bid fn args : origin =
  let size_of_arg i =
    match List.nth_opt args i with
    | Some a -> ( match static_size env a with Some s -> s | None -> Ir.S_opaque)
    | None -> Ir.S_opaque
  in
  match fn with
  | "parse_header" ->
      emit env.b bid (Ir.vcall P.V_parse_header Ir.S_header);
      O_plain
  | "payload_len" -> O_size Ir.S_payload
  | "packet_len" -> O_size Ir.S_packet
  | "payload_byte" ->
      lower_args env bid args;
      emit env.b bid (Ir.Load Ir.L_packet);
      O_plain
  | "checksum" ->
      emit env.b bid (Ir.vcall P.V_checksum Ir.S_packet);
      O_plain
  | "checksum_update" ->
      emit env.b bid (Ir.vcall P.V_checksum Ir.S_header);
      O_plain
  | "crypto" ->
      emit env.b bid (Ir.vcall P.V_crypto Ir.S_payload);
      O_plain
  | "lookup" ->
      let st = checked_state env (List.hd args) in
      lower_args env bid (List.tl args);
      emit env.b bid
        (Ir.vcall ~state:st ~reads:(Ir.S_const 2) P.V_table_lookup
           (Ir.S_state_entries st));
      O_lookup st
  | "update" ->
      let st = checked_state env (List.hd args) in
      lower_args env bid (List.tl args);
      emit env.b bid
        (Ir.vcall ~state:st ~reads:(Ir.S_const 1) ~writes:(Ir.S_const 1)
           P.V_table_update (Ir.S_state_entries st));
      O_plain
  | "lpm_match" ->
      let st = checked_state env (List.hd args) in
      lower_args env bid (List.tl args);
      (* Software match/action walks the rule set; reads are amortized
         over ~8 entries per memory burst. *)
      emit env.b bid
        (Ir.vcall ~state:st
           ~reads:(Ir.S_scaled (Ir.S_state_entries st, 0.125))
           P.V_lpm_lookup (Ir.S_state_entries st));
      O_lookup st
  | "found" | "entry_value" ->
      let o =
        match args with
        | [ Ast.Ident x ] -> ( match var_info env x with Some (_, o) -> o | None -> O_plain)
        | _ -> O_plain
      in
      emit env.b bid (Ir.Op P.Move);
      o
  | "meter" ->
      lower_args env bid args;
      emit env.b bid (Ir.vcall P.V_meter (Ir.S_const 1));
      O_count
  | "count" ->
      let st = checked_state env (List.hd args) in
      lower_args env bid (List.tl args);
      emit env.b bid (Ir.vcall ~state:st P.V_flow_stats (Ir.S_const 1));
      emit env.b bid (Ir.Atomic_op (Ir.L_state st));
      O_count
  | "state_read" ->
      let st = checked_state env (List.hd args) in
      lower_args env bid (List.tl args);
      emit env.b bid (Ir.Load (Ir.L_state st));
      O_plain
  | "state_write" ->
      let st = checked_state env (List.hd args) in
      lower_args env bid (List.tl args);
      emit env.b bid (Ir.Store (Ir.L_state st));
      O_plain
  | "state_add" ->
      let st = checked_state env (List.hd args) in
      lower_args env bid (List.tl args);
      emit env.b bid (Ir.Atomic_op (Ir.L_state st));
      O_plain
  | "scan_payload" ->
      lower_args env bid (List.tl args);
      emit env.b bid (Ir.vcall P.V_payload_scan Ir.S_payload);
      O_scan
  | "hash" ->
      lower_args env bid args;
      emit env.b bid (Ir.Op P.Hash);
      O_plain
  | "emit" ->
      emit env.b bid (Ir.vcall P.V_emit Ir.S_packet);
      O_plain
  | "drop" ->
      emit env.b bid (Ir.vcall P.V_drop (Ir.S_const 1));
      O_plain
  | other ->
      ignore (size_of_arg 0);
      failwith (Printf.sprintf "Lower: unknown builtin '%s'" other)

(* ------------------------------------------------------------------ *)
(* Guard extraction                                                    *)

let rec guard_of env (e : Ast.expr) : Ir.guard =
  match e with
  | Ast.Binop (Ast.Eq, Ast.Field (_, "proto"), rhs)
  | Ast.Binop (Ast.Eq, rhs, Ast.Field (_, "proto")) -> (
      match static_size env rhs with
      | Some (Ir.S_const k) -> Ir.G_proto k
      | _ -> Ir.G_opaque)
  | Ast.Binop (Ast.Ne, Ast.Field (f, "proto"), rhs) ->
      Ir.G_not (guard_of env (Ast.Binop (Ast.Eq, Ast.Field (f, "proto"), rhs)))
  | Ast.Binop ((Ast.Ne | Ast.Gt), Ast.Binop (Ast.Band, Ast.Field (_, "flags"), rhs), Ast.Int 0)
    -> (
      match static_size env rhs with
      | Some (Ir.S_const k) -> Ir.G_flag k
      | _ -> Ir.G_opaque)
  | Ast.Binop (Ast.Eq, Ast.Binop (Ast.Band, Ast.Field (_, "flags"), rhs), Ast.Int 0) -> (
      match static_size env rhs with
      | Some (Ir.S_const k) -> Ir.G_not (Ir.G_flag k)
      | _ -> Ir.G_opaque)
  | Ast.Call ("found", [ arg ]) -> (
      match arg with
      | Ast.Ident x -> (
          match var_info env x with
          | Some (_, O_lookup st) -> Ir.G_table_hit st
          | _ -> Ir.G_opaque)
      | Ast.Call (("lookup" | "lpm_match"), Ast.Ident st :: _) -> Ir.G_table_hit st
      | _ -> Ir.G_opaque)
  | Ast.Call ("scan_payload", _) -> Ir.G_scan_match
  | Ast.Ident x -> (
      match var_info env x with
      | Some (_, O_scan) -> Ir.G_scan_match
      | Some (_, O_lookup st) -> Ir.G_table_hit st
      | _ -> Ir.G_opaque)
  | Ast.Binop ((Ast.Gt | Ast.Ge), lhs, _) -> (
      match lhs with
      | Ast.Call (("count" | "meter"), _) -> Ir.G_count_exceeds
      | Ast.Ident x -> (
          match var_info env x with
          | Some (_, O_count) -> Ir.G_count_exceeds
          | _ -> Ir.G_opaque)
      | _ -> Ir.G_opaque)
  | Ast.Unop (Ast.Not, e) -> Ir.G_not (guard_of env e)
  | Ast.Binop (Ast.And, a, _) ->
      (* Approximate a conjunction by its first recognizable conjunct. *)
      guard_of env a
  | Ast.Binop (Ast.Or, a, b) -> (
      match (guard_of env a, guard_of env b) with
      | Ir.G_opaque, _ | _, Ir.G_opaque -> Ir.G_opaque
      | ga, gb -> Ir.G_or (ga, gb))
  | _ -> Ir.G_opaque

(* ------------------------------------------------------------------ *)
(* Trip count extraction for for-loops                                 *)

let trip_count env x init cond step : Ir.size_expr =
  let init_s = static_size env init in
  let bound_s =
    match cond with
    | Ast.Binop (Ast.Lt, Ast.Ident v, bound) when v = x -> static_size env bound
    | Ast.Binop (Ast.Le, Ast.Ident v, bound) when v = x -> (
        match static_size env bound with
        | Some (Ir.S_const k) -> Some (Ir.S_const (k + 1))
        | Some s -> Some (Ir.S_plus (s, 1))
        | None -> None)
    | _ -> None
  in
  let step_c =
    match step with
    | Ast.Binop (Ast.Add, Ast.Ident v, Ast.Int c) when v = x && c > 0 -> Some c
    | Ast.Binop (Ast.Add, Ast.Int c, Ast.Ident v) when v = x && c > 0 -> Some c
    | _ -> None
  in
  match (init_s, bound_s, step_c) with
  | Some (Ir.S_const i), Some (Ir.S_const b), Some c ->
      Ir.S_const (if b > i then (b - i + c - 1) / c else 0)
  | Some (Ir.S_const 0), Some s, Some 1 -> s
  | Some (Ir.S_const i), Some s, Some c ->
      Ir.S_scaled (Ir.S_plus (s, -i), 1. /. float_of_int c)
  | _ -> Ir.S_opaque

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                  *)

(* Lower a block of statements starting in [bid]; returns the block id
   where control continues (never terminated), or None if all paths
   returned. *)
let rec lower_block env bid (stmts : Ast.block) : int option =
  match stmts with
  | [] -> Some bid
  | s :: rest -> (
      match lower_stmt env bid s with
      | Some bid' -> lower_block env bid' rest
      | None ->
          (* Unreachable code after return: lower it into a dead block to
             keep costs conservative, then discard. *)
          if rest <> [] then ignore (lower_block env (new_block env.b) rest);
          None)

and lower_stmt env bid (s : Ast.stmt) : int option =
  match s with
  | Ast.Var (x, e, _) ->
      let o = lower_expr env bid e in
      emit env.b bid (Ir.Op P.Move);
      let o = match e with Ast.Int n -> O_const n | _ -> o in
      set_var env x (typ_of env e, o);
      Some bid
  | Ast.Assign (x, e, _) ->
      let o = lower_expr env bid e in
      emit env.b bid (Ir.Op P.Move);
      (match var_info env x with
      | Some (t, _) -> set_var env x (t, o)
      | None -> set_var env x (typ_of env e, o));
      Some bid
  | Ast.Field_assign (_, _, e, _) ->
      ignore (lower_expr env bid e);
      (* Header modification: a metadata move. *)
      emit env.b bid (Ir.Op P.Move);
      Some bid
  | Ast.Expr (e, _) ->
      ignore (lower_expr env bid e);
      Some bid
  | Ast.Return _ ->
      set_term env.b bid Ir.Ret;
      None
  | Ast.If (cond, then_b, else_b, _) -> (
      let guard = guard_of env cond in
      ignore (lower_expr env bid cond);
      emit env.b bid (Ir.Op P.Branch);
      let tb = new_block env.b in
      let eb = new_block env.b in
      set_term env.b bid (Ir.Cond { guard; then_ = tb; else_ = eb });
      let t_end = lower_block env tb then_b in
      let e_end =
        match else_b with
        | None -> Some eb
        | Some stmts -> lower_block env eb stmts
      in
      match (t_end, e_end) with
      | None, None -> None
      | Some b1, None ->
          let join = new_block env.b in
          set_term env.b b1 (Ir.Jump join);
          Some join
      | None, Some b2 ->
          let join = new_block env.b in
          set_term env.b b2 (Ir.Jump join);
          Some join
      | Some b1, Some b2 ->
          let join = new_block env.b in
          set_term env.b b1 (Ir.Jump join);
          set_term env.b b2 (Ir.Jump join);
          Some join)
  | Ast.While (cond, body, _) -> (
      (* Header evaluates the condition each iteration. *)
      let header = new_block env.b in
      set_term env.b bid (Ir.Jump header);
      ignore (lower_expr env header cond);
      emit env.b header (Ir.Op P.Branch);
      let body_b = new_block env.b in
      let exit_b = new_block env.b in
      set_term env.b header (Ir.Loop { body = body_b; exit = exit_b; trip = Ir.S_opaque });
      (match lower_block env body_b body with
      | Some e -> set_term env.b e (Ir.Jump header)
      | None -> ());
      Some exit_b)
  | Ast.For (x, init, cond, step, body, _) -> (
      let trip = trip_count env x init cond step in
      ignore (lower_expr env bid init);
      emit env.b bid (Ir.Op P.Move);
      set_var env x (Ast.T_int, O_plain);
      let header = new_block env.b in
      set_term env.b bid (Ir.Jump header);
      let body_b = new_block env.b in
      let exit_b = new_block env.b in
      set_term env.b header (Ir.Loop { body = body_b; exit = exit_b; trip });
      match lower_block env body_b body with
      | Some e ->
          (* Per-iteration bookkeeping: step + condition check. *)
          ignore (lower_expr env e step);
          emit env.b e (Ir.Op P.Move);
          ignore (lower_expr env e cond);
          emit env.b e (Ir.Op P.Branch);
          set_term env.b e (Ir.Jump header);
          Some exit_b
      | None -> Some exit_b)

let lower (p : Ast.program) : Ir.program =
  let b = { blocks = Array.init 8 (fun _ -> { instrs = []; term = None }); nblocks = 0 } in
  let env =
    { consts = p.consts;
      states = List.map (fun s -> (s.Ast.s_name, s)) p.states;
      vars = [ (p.handler.Ast.h_packet, (Ast.T_packet, O_plain)) ];
      b }
  in
  let entry = new_block b in
  (match lower_block env entry p.handler.Ast.h_body with
  | Some last -> set_term b last Ir.Ret
  | None -> ());
  let states =
    List.map
      (fun (s : Ast.state_decl) ->
        { Ir.st_name = s.s_name;
          st_kind = s.s_kind;
          st_entries = s.s_entries;
          st_entry_bytes = s.s_entry_bytes })
      p.states
  in
  { Ir.prog_name = p.nf_name; entry; blocks = finalize b; states }

let lower_source src =
  let ast = Parser.parse src in
  Typecheck.check_exn ast;
  lower ast

let of_source src =
  let at what msg (pos : Ast.pos) =
    Error (Printf.sprintf "%s error at %d:%d: %s" what pos.Ast.line pos.Ast.col msg)
  in
  match lower_source src with
  | ir -> Ok ir
  | exception Lexer.Error (msg, pos) -> at "lex" msg pos
  | exception Parser.Error (msg, pos) -> at "parse" msg pos
  | exception Failure msg -> Error msg
  | exception Ir.Unknown_state s ->
      Error (Printf.sprintf "NF references undeclared state '%s'" s)
