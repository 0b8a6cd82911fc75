module Ir = Clara_cir.Ir

type step =
  | Stop
  | Next of int
  | Back of { header : int; exit : int }
  | Branch of { guard : Ir.guard; then_ : int; else_ : int }

type t = {
  nodes : Node.t array;
  edges : (int * int) list;
  entry : int;
  cir : Ir.program;
  block_nodes : Node.t array array;
  steps : step array;
  order : int array;
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
  let rec go bid steps =
    if steps > 10_000 then raise Walk_limit;
    Array.iter visit t.block_nodes.(bid);
    match t.steps.(bid) with
    | Stop -> ()
    | Next d | Back { exit = d; _ } -> go d (steps + 1)
    | Branch { guard = g; then_; else_ } -> go (if guard g then then_ else else_) (steps + 1)
  in
  go t.cir.Ir.entry 1

let visits t ~prob =
  let n = Array.length t.steps in
  let mass = Array.make n 0. in
  mass.(t.cir.Ir.entry) <- 1.;
  let give d m = mass.(d) <- mass.(d) +. m in
  Array.iter
    (fun b ->
      let m = mass.(b) in
      match t.steps.(b) with
      | Stop -> ()
      | Next d | Back { exit = d; _ } -> give d m
      | Branch { then_; else_; _ } when then_ = else_ -> give then_ m
      | Branch { guard; then_; else_ } ->
          let p = prob guard in
          give then_ (p *. m);
          give else_ ((1. -. p) *. m))
    t.order;
  Array.map (fun (nd : Node.t) -> mass.(nd.Node.block)) t.nodes

let emit_mass t visits =
  Array.fold_left
    (fun acc (nd : Node.t) ->
      match nd.Node.kind with
      | Node.N_vcall { Ir.vc = Clara_lnic.Params.V_emit; _ } -> acc +. visits.(nd.Node.id)
      | _ -> acc)
    0. t.nodes

let vcall_nodes t = Array.to_list t.nodes |> List.filter Node.is_vcall

let states t = t.cir.Ir.states

let pp fmt t =
  Format.fprintf fmt "dataflow %s: %d nodes, %d edges, entry n%d@."
    t.cir.Ir.prog_name (Array.length t.nodes) (List.length t.edges) t.entry;
  Array.iter (fun n -> Format.fprintf fmt "  %a@." Node.pp n) t.nodes;
  List.iter (fun (s, d) -> Format.fprintf fmt "  n%d -> n%d@." s d) t.edges
