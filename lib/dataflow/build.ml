module Ir = Clara_cir.Ir

let of_ir (p : Ir.program) : Graph.t =
  let nblocks = Array.length p.Ir.blocks in
  (* The walk's step out of each block, and each loop body's trip
     count.  A [Jump] back to its loop's header ends the iteration. *)
  let block_trip = Array.make nblocks None in
  let steps =
    Array.map
      (fun (b : Ir.block) ->
        match b.Ir.term with
        | Ir.Ret -> Graph.Stop
        | Ir.Jump d -> Graph.Next d
        | Ir.Loop { body; _ } -> Graph.Next body
        | Ir.Cond { guard; then_; else_ } -> Graph.Branch { guard; then_; else_ })
      p.Ir.blocks
  in
  Array.iter
    (fun (b : Ir.block) ->
      match b.Ir.term with
      | Ir.Loop { body; exit; trip } ->
          let header = b.Ir.bid in
          List.iter
            (fun m ->
              block_trip.(m) <- Some trip;
              match (Ir.block p m).Ir.term with
              | Ir.Jump d when d = header -> steps.(m) <- Graph.Back { header; exit }
              | _ -> ())
            (Ir.loop_body p ~header ~body ~exit)
      | _ -> ())
    p.Ir.blocks;
  (* Reverse postorder of the blocks the entry reaches over the CIR
     edges, a [Back] step's exit standing in for its jump to the header:
     a topological order, or a cycle, which no walk could finish. *)
  let mark = Array.make nblocks `New and order = ref [] in
  let rec dfs b =
    match mark.(b) with
    | `Open -> raise Graph.Walk_limit
    | `Done -> ()
    | `New ->
        mark.(b) <- `Open;
        (match steps.(b) with
        | Graph.Back { exit; _ } -> dfs exit
        | _ -> List.iter dfs (Ir.successors (Ir.block p b).Ir.term));
        mark.(b) <- `Done;
        order := b :: !order
  in
  dfs p.Ir.entry;
  (* Split blocks into segments; record each block's node ids. *)
  let nodes = ref [] in
  let next_id = ref 0 in
  let block_ids = Array.make nblocks [] in
  let intra_edges = ref [] in
  let add_node block kind =
    let id = !next_id in
    incr next_id;
    nodes := { Node.id; kind; block; loop_trip = block_trip.(block) } :: !nodes;
    id
  in
  Array.iter
    (fun (b : Ir.block) ->
      let segments =
        (* Group instrs: runs of non-vcalls, single vcalls.  A compute run
           is additionally split when it would touch a second state object
           — the mapping ILP prices each node against a single placement
           decision. *)
        let rec split acc cur cur_state = function
          | [] -> List.rev (if cur = [] then acc else Node.N_compute (List.rev cur) :: acc)
          | (Ir.Vcall v) :: rest ->
              let acc = if cur = [] then acc else Node.N_compute (List.rev cur) :: acc in
              split (Node.N_vcall v :: acc) [] None rest
          | i :: rest -> (
              match (Ir.instr_state i, cur_state) with
              | Some s', Some s when s' <> s ->
                  split (Node.N_compute (List.rev cur) :: acc) [ i ] (Some s') rest
              | Some s', _ -> split acc (i :: cur) (Some s') rest
              | None, _ -> split acc (i :: cur) cur_state rest)
        in
        match split [] [] None b.Ir.instrs with
        | [] -> [ Node.N_compute [] ] (* empty block still anchors edges *)
        | segs -> segs
      in
      let ids = List.map (add_node b.Ir.bid) segments in
      block_ids.(b.Ir.bid) <- ids;
      let rec chain = function
        | a :: (b2 :: _ as rest) ->
            intra_edges := (a, b2) :: !intra_edges;
            chain rest
        | _ -> ()
      in
      chain ids)
    p.Ir.blocks;
  let nodes = Array.of_list (List.rev !nodes) in
  let block_nodes =
    Array.map (fun ids -> Array.of_list (List.map (Array.get nodes) ids)) block_ids
  in
  (* Inter-block edges following terminators, minus the back edges. *)
  let first bid = block_nodes.(bid).(0).Node.id in
  let last bid =
    let ns = block_nodes.(bid) in
    ns.(Array.length ns - 1).Node.id
  in
  let inter_edges = ref [] in
  Array.iter
    (fun (b : Ir.block) ->
      match steps.(b.Ir.bid) with
      | Graph.Back _ -> ()
      | _ ->
          List.iter
            (fun d -> inter_edges := (last b.Ir.bid, first d) :: !inter_edges)
            (Ir.successors b.Ir.term))
    p.Ir.blocks;
  {
    Graph.nodes;
    edges = List.rev !intra_edges @ List.rev !inter_edges;
    entry = first p.Ir.entry;
    cir = p;
    block_nodes;
    steps;
    order = Array.of_list !order;
  }

let of_source src =
  let ir = Clara_cir.Lower.lower_source src in
  let ir, _report = Clara_cir.Patterns.run ir in
  of_ir ir
