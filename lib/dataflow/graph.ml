module Ir = Clara_cir.Ir

type t = {
  nodes : Node.t array;
  edges : (int * int) list;
  entry : int;
  cir : Ir.program;
  block_nodes : Node.t array array;
}

let node t i =
  if i < 0 || i >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Dataflow.Graph.node: bad id %d" i)
  else t.nodes.(i)

let successors t i = List.filter_map (fun (s, d) -> if s = i then Some d else None) t.edges

let topo_order t =
  let n = Array.length t.nodes in
  let indegree = Array.make n 0 in
  List.iter (fun (_, d) -> indegree.(d) <- indegree.(d) + 1) t.edges;
  (* Kahn's algorithm, preferring smaller ids for determinism. *)
  let ready = ref (List.filter (fun i -> indegree.(i) = 0) (List.init n Fun.id)) in
  let out = ref [] in
  let count = ref 0 in
  while !ready <> [] do
    let i = List.hd (List.sort compare !ready) in
    ready := List.filter (( <> ) i) !ready;
    out := i :: !out;
    incr count;
    List.iter
      (fun s ->
        indegree.(s) <- indegree.(s) - 1;
        if indegree.(s) = 0 then ready := s :: !ready)
      (successors t i)
  done;
  if !count <> n then failwith "Dataflow.Graph.topo_order: graph has a cycle";
  List.rev !out

exception Walk_limit

let walk t ~guard ~visit =
  let steps = ref 0 in
  (* [go] answers whether control continues after [bid]'s region: false
     once a [Ret] ends the packet.  [stop] is the innermost enclosing
     loop header (-1 at top level); jumping to it ends one iteration. *)
  let rec go bid ~stop =
    incr steps;
    if !steps > 10_000 then raise Walk_limit;
    Array.iter visit t.block_nodes.(bid);
    match (Ir.block t.cir bid).Ir.term with
    | Ir.Ret -> false
    | Ir.Jump d -> d = stop || go d ~stop
    | Ir.Cond { guard = g; then_; else_ } -> go (if guard g then then_ else else_) ~stop
    | Ir.Loop { body; exit; trip = _ } ->
        (* Body nodes carry the trip multiplier: walk the body once for
           guard resolution, then continue at the exit. *)
        go body ~stop:bid && go exit ~stop
  in
  ignore (go t.cir.Ir.entry ~stop:(-1))

let vcall_nodes t = Array.to_list t.nodes |> List.filter Node.is_vcall

let states t = t.cir.Ir.states

let pp fmt t =
  Format.fprintf fmt "dataflow %s: %d nodes, %d edges, entry n%d@."
    t.cir.Ir.prog_name (Array.length t.nodes) (List.length t.edges) t.entry;
  Array.iter (fun n -> Format.fprintf fmt "  %a@." Node.pp n) t.nodes;
  List.iter (fun (s, d) -> Format.fprintf fmt "  n%d -> n%d@." s d) t.edges
