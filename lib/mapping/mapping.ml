type placement = In_memory of int | In_accel of int

type t = {
  node_unit : int array;
  state_place : (string * placement) list;
  objective_cycles : float;
  ilp_nodes : int;
  ilp_vars : int;
  ilp_gap : float option;
}

type options = {
  disallowed_accels : Clara_lnic.Unit_.accel_kind list;
  pin_state : (string * Clara_lnic.Memory.level) list;
  node_limit : int;
  sharing : (string * Clara_analysis.Sharing.verdict) list;
}

let default_options =
  { disallowed_accels = []; pin_state = []; node_limit = 200_000; sharing = [] }

let placement_of_state t s = List.assoc_opt s t.state_place

let pp lnic fmt t =
  let degraded =
    match t.ilp_gap with
    | None -> ""
    | Some g -> Format.asprintf ", node-limited, gap <= %.0f" g
  in
  Format.fprintf fmt "mapping (objective %.0f cycles, %d B&B nodes, %d vars%s)@."
    t.objective_cycles t.ilp_nodes t.ilp_vars degraded;
  Array.iteri
    (fun n u ->
      Format.fprintf fmt "  n%d -> %s@." n (Clara_lnic.Graph.unit_ lnic u).Clara_lnic.Unit_.name)
    t.node_unit;
  List.iter
    (fun (s, p) ->
      match p with
      | In_memory m ->
          Format.fprintf fmt "  state %s -> %s@." s
            (Clara_lnic.Graph.memory lnic m).Clara_lnic.Memory.name
      | In_accel u ->
          Format.fprintf fmt "  state %s -> %s (accel SRAM)@." s
            (Clara_lnic.Graph.unit_ lnic u).Clara_lnic.Unit_.name)
    t.state_place
