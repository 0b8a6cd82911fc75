module Ir = Clara_cir.Ir

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

type direction = Forward | Backward

module Make (L : LATTICE) = struct
  type result = { input : L.t array; output : L.t array; iterations : int }

  type outcome =
    | Fixpoint of result
    | Budget_exhausted of { budget : int; prog : string; partial : result }

  let solve ?(direction = Forward) ?edge ?widen ?(widen_delay = 3) ~init
      ~transfer (p : Ir.program) =
    let n = Array.length p.Ir.blocks in
    let edge =
      match edge with Some f -> f | None -> fun ~src:_ ~dst:_ x -> x
    in
    let input = Array.make n L.bottom in
    let output = Array.make n L.bottom in
    (* [flow.(b)] lists the (edge_src, edge_dst, successor-in-traversal)
       triples along which b's output propagates.  For Forward the
       traversal successor is the edge destination; for Backward it is
       the edge source (facts run against the arrows), but [edge] always
       sees the edge as written in the program. *)
    let flow = Array.make n [] in
    let seeds = ref [] in
    Array.iter
      (fun (b : Ir.block) ->
        let succs = Ir.successors b.Ir.term in
        match direction with
        | Forward ->
            flow.(b.Ir.bid) <- List.map (fun d -> (b, d, d)) succs;
            if b.Ir.bid = p.Ir.entry then seeds := b.Ir.bid :: !seeds
        | Backward ->
            List.iter
              (fun d -> flow.(d) <- (b, d, b.Ir.bid) :: flow.(d))
              succs;
            if b.Ir.term = Ir.Ret then seeds := b.Ir.bid :: !seeds)
      p.Ir.blocks;
    List.iter (fun s -> input.(s) <- L.join input.(s) init) !seeds;
    (* How many times each block's input has strictly grown.  Past
       [widen_delay] updates the join is replaced by [widen] (when
       supplied), which must over-approximate the join and stabilize
       ascending chains — the termination story for infinite-height
       lattices like {!Interval}. *)
    let bumps = Array.make n 0 in
    let budget = 1000 * (n + 1) in
    let iterations = ref 0 in
    let exhausted = ref false in
    let queue = Queue.create () in
    let queued = Array.make n false in
    let enqueue b =
      if not queued.(b) then (
        queued.(b) <- true;
        Queue.add b queue)
    in
    List.iter enqueue (List.rev !seeds);
    while (not (Queue.is_empty queue)) && not !exhausted do
      let b = Queue.pop queue in
      queued.(b) <- false;
      incr iterations;
      if !iterations > budget then exhausted := true
      else
        let out = transfer p.Ir.blocks.(b) input.(b) in
        if not (L.equal out output.(b)) then (
          output.(b) <- out;
          List.iter
            (fun (src, dst, next) ->
              let contrib = edge ~src ~dst out in
              let joined = L.join input.(next) contrib in
              if not (L.equal joined input.(next)) then (
                bumps.(next) <- bumps.(next) + 1;
                let updated =
                  match widen with
                  | Some w when bumps.(next) > widen_delay ->
                      w input.(next) joined
                  | _ -> joined
                in
                input.(next) <- updated;
                enqueue next))
            flow.(b))
    done;
    let r = { input; output; iterations = !iterations } in
    if !exhausted then
      Budget_exhausted { budget; prog = p.Ir.prog_name; partial = r }
    else Fixpoint r
end
