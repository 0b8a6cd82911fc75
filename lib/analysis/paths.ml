module Ir = Clara_cir.Ir
module D = Clara_dataflow

(* A fact is an atomic guard plus the polarity under which it is known
   to hold.  Only packet-stable atoms participate (see .mli). *)
type fact = Ir.guard * bool

module L = struct
  type t = Unreached | Facts of fact list (* canonical: sorted, duplicate-free *)

  (* Fact lists are sets: intersect them canonically, so an order- or
     duplicate-perturbed list still joins to the same set. *)
  let join a b =
    match (a, b) with
    | Unreached, x | x, Unreached -> x
    | Facts x, Facts y ->
        Facts (List.sort_uniq compare (List.filter (fun f -> List.mem f y) x))
end

let trackable = function Ir.G_proto _ | Ir.G_flag _ -> true | _ -> false

(* Decompose a guard into the atomic facts implied by it evaluating to
   [pol].  A true disjunction pins down neither arm; a false one
   falsifies both. *)
let rec facts_of_guard g pol =
  match Ir.simplify_guard g with
  | Ir.G_not h -> facts_of_guard h (not pol)
  | Ir.G_or (a, b) ->
      if pol then [] else facts_of_guard a false @ facts_of_guard b false
  | atom -> if trackable atom then [ (atom, pol) ] else []

(* Two facts that cannot hold simultaneously: same atom with opposite
   polarity, or two different protocols both asserted. *)
let conflicts (a, pa) (b, pb) =
  (a = b && pa <> pb)
  || pa && pb
     && (match (a, b) with
        | Ir.G_proto x, Ir.G_proto y -> x <> y
        | _ -> false)

let add_fact fs f =
  if List.exists (conflicts f) fs then None
  else if List.mem f fs then Some fs
  else Some (List.sort compare (f :: fs))

let assuming fs g pol =
  List.fold_left
    (fun acc f -> match acc with None -> None | Some fs -> add_fact fs f)
    (Some fs) (facts_of_guard g pol)

(* The facts on every path into each block: one fold in the block
   order.  A [Cond] edge adds its outcome or, when the outcome
   contradicts the facts, carries nothing.  Back edges are left out: one
   only intersects its header's facts with a superset of them. *)
let facts (df : D.Graph.t) =
  let p = df.D.Graph.cir in
  let at = Array.make (Array.length p.Ir.blocks) L.Unreached in
  at.(p.Ir.entry) <- L.Facts [];
  Array.iter
    (fun b ->
      match (at.(b), df.D.Graph.steps.(b)) with
      | L.Unreached, _ | _, D.Graph.Back _ -> ()
      | L.Facts fs, _ ->
          let term = (Ir.block p b).Ir.term in
          List.iter
            (fun dst ->
              let out =
                match term with
                | Ir.Cond { guard; then_; else_ } when then_ <> else_ -> (
                    match assuming fs guard (dst = then_) with
                    | None -> L.Unreached
                    | Some fs' -> L.Facts fs')
                | _ -> L.Facts fs
              in
              at.(dst) <- L.join at.(dst) out)
            (Ir.successors term))
    df.D.Graph.order;
  at

let analyze (df : D.Graph.t) =
  let at = facts df in
  let in_order = Array.make (Array.length at) false in
  Array.iter (fun b -> in_order.(b) <- true) df.D.Graph.order;
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  Array.iter
    (fun (b : Ir.block) ->
      let bid = b.Ir.bid in
      match at.(bid) with
      | L.Unreached ->
          (* CFG-unreachable blocks are eliminate_dead_blocks' problem;
             only report blocks the block order holds. *)
          if in_order.(bid) then
            emit
              (Diag.make ~block:bid ~code:"CLARA202" ~severity:Diag.Warn
                 ~pass:"paths"
                 (Printf.sprintf
                    "block b%d is unreachable: every path to it carries \
                     contradictory guard facts"
                    bid))
      | L.Facts fs -> (
          match b.Ir.term with
          | Ir.Cond { guard; then_; else_ } when then_ <> else_ ->
              let dead pol = assuming fs guard pol = None in
              let guard_str = Format.asprintf "%a" Ir.pp_guard guard in
              if dead true then
                emit
                  (Diag.make ~block:bid ~code:"CLARA201" ~severity:Diag.Warn
                     ~pass:"paths"
                     (Printf.sprintf
                        "guard '%s' at b%d contradicts facts established on \
                         every path here; its then-branch (b%d) never \
                         executes"
                        guard_str bid then_))
              else if dead false then
                emit
                  (Diag.make ~block:bid ~code:"CLARA203" ~severity:Diag.Info
                     ~pass:"paths"
                     (Printf.sprintf
                        "guard '%s' at b%d is implied by earlier guards; its \
                         else-branch (b%d) is dead"
                        guard_str bid else_))
          | _ -> ()))
    df.D.Graph.cir.Ir.blocks;
  List.rev !diags
