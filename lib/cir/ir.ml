type size_expr =
  | S_const of int
  | S_payload
  | S_packet
  | S_header
  | S_state_entries of string
  | S_scaled of size_expr * float
  | S_plus of size_expr * int
  | S_opaque

type loc = L_local | L_packet | L_state of string

type guard =
  | G_proto of int
  | G_flag of int
  | G_table_hit of string
  | G_scan_match
  | G_count_exceeds
  | G_opaque
  | G_not of guard
  | G_or of guard * guard

type vcall_info = {
  vc : Clara_lnic.Params.vcall;
  size : size_expr;
  state : string option;
  state_reads : size_expr;
  state_writes : size_expr;
}

type instr =
  | Op of Clara_lnic.Params.op_class
  | Load of loc
  | Store of loc
  | Atomic_op of loc
  | Vcall of vcall_info

type terminator =
  | Jump of int
  | Cond of { guard : guard; then_ : int; else_ : int }
  | Loop of { body : int; exit : int; trip : size_expr }
  | Ret

type block = { bid : int; instrs : instr list; term : terminator }

type state_obj = {
  st_name : string;
  st_kind : Ast.state_kind;
  st_entries : int;
  st_entry_bytes : int;
}

type program = {
  prog_name : string;
  entry : int;
  blocks : block array;
  states : state_obj list;
}

exception Unknown_state of string

let () =
  Printexc.register_printer (function
    | Unknown_state s -> Some (Printf.sprintf "Ir.Unknown_state(%S)" s)
    | _ -> None)

let state_obj_opt p name = List.find_opt (fun s -> s.st_name = name) p.states

let state_obj p name =
  match state_obj_opt p name with
  | Some s -> s
  | None -> raise (Unknown_state name)

let state_bytes s = s.st_entries * s.st_entry_bytes

let successors = function
  | Jump b -> [ b ]
  | Cond { then_; else_; _ } -> [ then_; else_ ]
  | Loop { body; exit; _ } -> [ body; exit ]
  | Ret -> []

let block p bid =
  if bid < 0 || bid >= Array.length p.blocks then
    invalid_arg (Printf.sprintf "Ir.block: bad block id %d" bid)
  else p.blocks.(bid)

let instr_state = function
  | Load (L_state s) | Store (L_state s) | Atomic_op (L_state s)
  | Vcall { state = Some s; _ } ->
      Some s
  | _ -> None

let loop_body p ~header ~body ~exit =
  let seen = ref [] in
  let rec go bid =
    if bid <> header && bid <> exit && not (List.mem bid !seen) then begin
      seen := bid :: !seen;
      List.iter go (successors (block p bid).term)
    end
  in
  go body;
  !seen

let vcall ?state ?(reads = S_const 0) ?(writes = S_const 0) vc size =
  Vcall { vc; size; state; state_reads = reads; state_writes = writes }

let instr_count p =
  Array.fold_left (fun acc b -> acc + List.length b.instrs) 0 p.blocks

let vcalls_of p =
  Array.to_list p.blocks
  |> List.concat_map (fun b ->
         List.filter_map (function Vcall v -> Some v | _ -> None) b.instrs)

let rec pp_size fmt = function
  | S_const n -> Format.pp_print_int fmt n
  | S_payload -> Format.pp_print_string fmt "payload"
  | S_packet -> Format.pp_print_string fmt "pkt"
  | S_header -> Format.pp_print_string fmt "hdr"
  | S_state_entries s -> Format.fprintf fmt "entries(%s)" s
  | S_scaled (e, k) -> Format.fprintf fmt "%g*%a" k pp_size e
  | S_plus (e, k) -> Format.fprintf fmt "(%a+%d)" pp_size e k
  | S_opaque -> Format.pp_print_string fmt "?"

(* Normalization used by printing and by path analysis: double negation,
   duplicate [G_or] arms, and the constant fold !opaque = opaque (an
   unrecognized predicate stays unrecognized under negation). *)
let rec simplify_guard = function
  | G_not g -> (
      match simplify_guard g with
      | G_not h -> h
      | G_opaque -> G_opaque
      | h -> G_not h)
  | G_or (a, b) ->
      let a = simplify_guard a and b = simplify_guard b in
      if a = b then a else G_or (a, b)
  | (G_proto _ | G_flag _ | G_table_hit _ | G_scan_match | G_count_exceeds | G_opaque)
    as g -> g

let rec pp_guard_raw fmt = function
  | G_proto k -> Format.fprintf fmt "proto==%d" k
  | G_flag k -> Format.fprintf fmt "flags&0x%x" k
  | G_table_hit s -> Format.fprintf fmt "hit(%s)" s
  | G_scan_match -> Format.pp_print_string fmt "scan-match"
  | G_count_exceeds -> Format.pp_print_string fmt "count-exceeds"
  | G_opaque -> Format.pp_print_string fmt "opaque"
  | G_not g -> Format.fprintf fmt "!(%a)" pp_guard_raw g
  | G_or (a, b) -> Format.fprintf fmt "(%a || %a)" pp_guard_raw a pp_guard_raw b

let pp_guard fmt g = pp_guard_raw fmt (simplify_guard g)

let pp_loc fmt = function
  | L_local -> Format.pp_print_string fmt "local"
  | L_packet -> Format.pp_print_string fmt "pkt"
  | L_state s -> Format.fprintf fmt "state:%s" s

let pp_instr fmt = function
  | Op c -> Format.fprintf fmt "op.%s" (Clara_lnic.Params.op_name c)
  | Load l -> Format.fprintf fmt "load %a" pp_loc l
  | Store l -> Format.fprintf fmt "store %a" pp_loc l
  | Atomic_op l -> Format.fprintf fmt "atomic %a" pp_loc l
  | Vcall v ->
      Format.fprintf fmt "vcall %s(%a)%s"
        (Clara_lnic.Params.vcall_name v.vc)
        pp_size v.size
        (match v.state with None -> "" | Some s -> " @" ^ s)

let pp_terminator fmt = function
  | Jump b -> Format.fprintf fmt "jump b%d" b
  | Cond { guard; then_; else_ } ->
      Format.fprintf fmt "if %a then b%d else b%d" pp_guard guard then_ else_
  | Loop { body; exit; trip } ->
      Format.fprintf fmt "loop b%d x%a exit b%d" body pp_size trip exit
  | Ret -> Format.pp_print_string fmt "ret"

let pp_program fmt p =
  Format.fprintf fmt "cir %s (entry b%d)@." p.prog_name p.entry;
  List.iter
    (fun s ->
      Format.fprintf fmt "  state %s: %d x %dB@." s.st_name s.st_entries s.st_entry_bytes)
    p.states;
  Array.iter
    (fun b ->
      Format.fprintf fmt "  b%d:@." b.bid;
      List.iter (fun i -> Format.fprintf fmt "    %a@." pp_instr i) b.instrs;
      Format.fprintf fmt "    %a@." pp_terminator b.term)
    p.blocks
