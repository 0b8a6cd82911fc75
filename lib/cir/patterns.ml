module P = Clara_lnic.Params

type report = {
  loops_coarsened : int;
  parses_recognized : int;
  blocks_removed : int;
}

(* ------------------------------------------------------------------ *)
(* Reachability + renumbering                                          *)

let reachable (p : Ir.program) =
  let seen = Array.make (Array.length p.blocks) false in
  let rec go bid =
    if not seen.(bid) then begin
      seen.(bid) <- true;
      List.iter go (Ir.successors (Ir.block p bid).Ir.term)
    end
  in
  go p.entry;
  seen

let eliminate_dead_blocks (p : Ir.program) =
  let seen = reachable p in
  let n = Array.length p.blocks in
  let remap = Array.make n (-1) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    if seen.(i) then begin
      remap.(i) <- !next;
      incr next
    end
  done;
  let removed = n - !next in
  if removed = 0 then (p, 0)
  else begin
    let retarget = function
      | Ir.Jump b -> Ir.Jump remap.(b)
      | Ir.Cond { guard; then_; else_ } ->
          Ir.Cond { guard; then_ = remap.(then_); else_ = remap.(else_) }
      | Ir.Loop { body; exit; trip } -> Ir.Loop { body = remap.(body); exit = remap.(exit); trip }
      | Ir.Ret -> Ir.Ret
    in
    let blocks =
      Array.of_list
        (List.filter_map
           (fun (b : Ir.block) ->
             if seen.(b.bid) then
               Some { b with Ir.bid = remap.(b.bid); term = retarget b.term }
             else None)
           (Array.to_list p.blocks))
    in
    ({ p with Ir.entry = remap.(p.entry); blocks }, removed)
  end

(* ------------------------------------------------------------------ *)
(* Loop classification                                                 *)

type loop_shape = Sh_checksum | Sh_scan | Sh_unknown

let classify_loop (p : Ir.program) blocks =
  (* A coarsenable loop touches only the packet (no state, no vcalls) and
     does register-level arithmetic. Branching inside the body signals
     per-byte comparisons, i.e. scanning. *)
  let ok = ref true in
  let packet_loads = ref 0 in
  let branches = ref 0 in
  List.iter
    (fun bid ->
      let b = Ir.block p bid in
      List.iter
        (fun (i : Ir.instr) ->
          match i with
          | Ir.Load Ir.L_packet -> incr packet_loads
          | Ir.Load Ir.L_local | Ir.Store Ir.L_local -> ()
          (* Op Branch covers the loop's own step/condition bookkeeping;
             data-dependent branching shows up as Cond terminators. *)
          | Ir.Op (P.Alu | P.Move | P.Mul | P.Hash | P.Branch) -> ()
          | Ir.Op _ | Ir.Load _ | Ir.Store _ | Ir.Atomic_op _ | Ir.Vcall _ ->
              ok := false)
        b.Ir.instrs;
      match b.Ir.term with
      | Ir.Cond _ -> incr branches
      | Ir.Jump _ | Ir.Ret -> ()
      | Ir.Loop _ -> ok := false (* nested loops stay uncoarsened *))
    blocks;
  if (not !ok) || !packet_loads = 0 then Sh_unknown
  else if !branches > 0 then Sh_scan
  else Sh_checksum

let rec strip_size = function
  | Ir.S_scaled (e, _) | Ir.S_plus (e, _) -> strip_size e
  | e -> e

let payloadish = function
  | Ir.S_payload | Ir.S_packet | Ir.S_header -> true
  | Ir.S_const _ | Ir.S_state_entries _ | Ir.S_opaque -> false
  | Ir.S_scaled _ | Ir.S_plus _ -> false

(* ------------------------------------------------------------------ *)
(* Entry-parse recognition                                             *)

let has_parse_vcall (p : Ir.program) =
  List.exists (fun v -> v.Ir.vc = P.V_parse_header) (Ir.vcalls_of p)

(* A run of >= 4 packet loads (interleaved with moves/alu) before any
   vcall in the entry block is hand-written header parsing. *)
let recognize_entry_parse (p : Ir.program) =
  if has_parse_vcall p then (p, 0)
  else begin
    let entry = Ir.block p p.entry in
    let prefix, rest =
      let rec split acc = function
        | (Ir.Vcall _ :: _ | []) as rest -> (List.rev acc, rest)
        | i :: rest -> split (i :: acc) rest
      in
      split [] entry.Ir.instrs
    in
    let loads =
      List.length (List.filter (function Ir.Load Ir.L_packet -> true | _ -> false) prefix)
    in
    let pure =
      List.for_all
        (function
          | Ir.Load Ir.L_packet | Ir.Op (P.Alu | P.Move | P.Branch) -> true
          | _ -> false)
        prefix
    in
    if loads >= 4 && pure then begin
      let instrs = Ir.vcall P.V_parse_header Ir.S_header :: rest in
      let blocks =
        Array.map
          (fun (b : Ir.block) -> if b.Ir.bid = p.entry then { b with Ir.instrs } else b)
          p.blocks
      in
      ({ p with Ir.blocks }, 1)
    end
    else (p, 0)
  end

(* ------------------------------------------------------------------ *)
(* Main pass                                                           *)

let coarsen_loops (p : Ir.program) =
  let coarsened = ref 0 in
  let blocks =
    Array.map
      (fun (b : Ir.block) ->
        match b.Ir.term with
        | Ir.Loop { body; exit; trip } when payloadish (strip_size trip) -> (
            let bblocks = Ir.loop_body p ~header:b.Ir.bid ~body ~exit in
            match classify_loop p bblocks with
            | Sh_unknown -> b
            | shape ->
                let vc, size =
                  match shape with
                  | Sh_checksum -> (P.V_checksum, strip_size trip)
                  | Sh_scan | Sh_unknown -> (P.V_payload_scan, strip_size trip)
                in
                incr coarsened;
                { b with
                  Ir.instrs = b.Ir.instrs @ [ Ir.vcall vc size ];
                  term = Ir.Jump exit })
        | _ -> b)
      p.blocks
  in
  ({ p with Ir.blocks }, !coarsened)

let run (p : Ir.program) =
  let p, loops_coarsened = coarsen_loops p in
  let p, parses_recognized = recognize_entry_parse p in
  let p, blocks_removed = eliminate_dead_blocks p in
  (p, { loops_coarsened; parses_recognized; blocks_removed })
