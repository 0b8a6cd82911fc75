module D = Clara_dataflow
module Ir = Clara_cir.Ir
module P = Clara_lnic.Params

type decision = { guard : Clara_cir.Ir.guard; taken : bool }

type path = {
  decisions : decision list;
  cost_cycles : float;
  emits : bool;
  description : string;
}

let describe decisions =
  let part { guard; taken } =
    let yes s = if taken then s else "not(" ^ s ^ ")" in
    match guard with
    | Ir.G_proto 6 -> yes "tcp"
    | Ir.G_proto 17 -> yes "udp"
    | Ir.G_proto k -> yes (Printf.sprintf "proto=%d" k)
    | Ir.G_flag 2 -> yes "syn"
    | Ir.G_flag k -> yes (Printf.sprintf "flag=0x%x" k)
    | Ir.G_table_hit s -> yes (Printf.sprintf "%s-hit" s)
    | Ir.G_scan_match -> yes "scan-match"
    | Ir.G_count_exceeds -> yes "over-threshold"
    | Ir.G_opaque -> yes "cond"
    | Ir.G_not _ | Ir.G_or _ -> yes (Format.asprintf "%a" Ir.pp_guard guard)
  in
  match decisions with
  | [] -> "all packets"
  | ds -> String.concat " & " (List.map part ds)

(* Atomic guards underneath negation/disjunction, used for consistent
   resolution along a path. *)
let rec atoms = function
  | Ir.G_not g -> atoms g
  | Ir.G_or (a, b) -> atoms a @ atoms b
  | g -> [ g ]

(* Evaluate a guard under an assignment of atomic guards to booleans. *)
let rec eval_guard assign = function
  | Ir.G_not g -> not (eval_guard assign g)
  | Ir.G_or (a, b) -> eval_guard assign a || eval_guard assign b
  | g -> List.assoc g assign

let enumerate ?(max_paths = 64) ~sizes lnic (df : D.Graph.t) mapping =
  let cir = df.D.Graph.cir in
  let pricer = Pricer.create ~mapping lnic df in
  let sizes = Pricer.sizes pricer sizes in
  let nodes_by_block = Hashtbl.create 32 in
  Array.iter
    (fun (n : D.Node.t) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt nodes_by_block n.D.Node.block) in
      Hashtbl.replace nodes_by_block n.D.Node.block (cur @ [ n ]))
    df.D.Graph.nodes;
  let node_cost (n : D.Node.t) =
    match Pricer.price pricer sizes n with Some p -> p.D.Cost.total | None -> 0.
  in
  let results = ref [] in
  let count = ref 0 in
  (* DFS over the structured CFG; [assign] fixes atomic guards already
     decided on this path.  [stop] is a stack of enclosing loop headers;
     jumping to the innermost one ends the current iteration walk. *)
  let rec walk bid ~stop ~assign ~decisions ~cost ~emits ~depth =
    if !count >= max_paths || depth > 4096 then ()
    else begin
      let cost, emits =
        List.fold_left
          (fun (c, e) (n : D.Node.t) ->
            ( c +. node_cost n,
              e
              ||
              match n.D.Node.kind with
              | D.Node.N_vcall v -> v.Ir.vc = P.V_emit
              | _ -> false ))
          (cost, emits)
          (Option.value ~default:[] (Hashtbl.find_opt nodes_by_block bid))
      in
      match (Ir.block cir bid).Ir.term with
      | Ir.Ret ->
          incr count;
          results :=
            { decisions = List.rev decisions;
              cost_cycles =
                cost +. Pricer.wire_cycles lnic ~bytes:sizes.D.Cost.packet_bytes ~emitted:emits;
              emits;
              description = describe (List.rev decisions) }
            :: !results
      | Ir.Jump d ->
          (match stop with
          | header :: outer when d = header ->
              (* Loop iteration boundary: resume at the loop's exit. *)
              (match (Ir.block cir header).Ir.term with
              | Ir.Loop { exit; _ } ->
                  walk exit ~stop:outer ~assign ~decisions ~cost ~emits
                    ~depth:(depth + 1)
              | _ -> ())
          | _ -> walk d ~stop ~assign ~decisions ~cost ~emits ~depth:(depth + 1))
      | Ir.Cond { guard; then_; else_ } ->
          let needed = atoms guard in
          let undecided = List.filter (fun a -> not (List.mem_assoc a assign)) needed in
          let rec assignments acc = function
            | [] -> [ acc ]
            | a :: rest ->
                assignments ((a, true) :: acc) rest @ assignments ((a, false) :: acc) rest
          in
          let feasible assign =
            (* Protocols are mutually exclusive: at most one G_proto atom
               may hold. *)
            let protos_true =
              List.filter
                (fun (g, v) -> v && match g with Ir.G_proto _ -> true | _ -> false)
                assign
            in
            List.length protos_true <= 1
          in
          List.iter
            (fun extra ->
              let assign = extra @ assign in
              if not (feasible assign) then ()
              else
              let v = eval_guard assign guard in
              let decisions =
                (* Record only newly-decided atoms to keep descriptions
                   short. *)
                List.rev_append
                  (List.map (fun (g, taken) -> { guard = g; taken }) extra)
                  decisions
              in
              walk (if v then then_ else else_) ~stop ~assign ~decisions ~cost ~emits
                ~depth:(depth + 1))
            (assignments [] undecided)
      | Ir.Loop { body; exit = _; trip = _ } ->
          (* Body nodes carry trips; walk body once, then exit. *)
          walk body ~stop:(bid :: stop) ~assign ~decisions ~cost ~emits
            ~depth:(depth + 1)
    end
  in
  walk cir.Ir.entry ~stop:[] ~assign:[] ~decisions:[] ~cost:0. ~emits:false ~depth:0;
  List.sort (fun a b -> compare b.cost_cycles a.cost_cycles) !results

let pp_path fmt p =
  Format.fprintf fmt "%-40s %10.0f cyc %s" p.description p.cost_cycles
    (if p.emits then "emit" else "drop")
