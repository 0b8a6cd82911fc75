module L = Clara_lnic
module D = Clara_dataflow
module Ir = Clara_cir.Ir

let map_nf_exn ~(options : Mapping.options) lnic (df : D.Graph.t) ~sizes ~prob =
  let states = D.Graph.states df in
  let footprint s = Ir.state_bytes (Ir.state_obj df.D.Graph.cir s) in
  let sizes = Encode.with_entries df.D.Graph.cir sizes in
  (* First-fit state placement: fastest shared region with remaining
     capacity.  The greedy port never considers accelerator SRAM — using
     the flow cache is exactly the insight hand-tuning discovers. *)
  let shared =
    Array.to_list lnic.L.Graph.memories
    |> List.filter (fun (m : L.Memory.t) -> m.L.Memory.level <> L.Memory.Local)
    |> List.sort (fun (a : L.Memory.t) b -> compare a.L.Memory.read_cycles b.L.Memory.read_cycles)
  in
  let remaining = Hashtbl.create 8 in
  List.iter
    (fun (m : L.Memory.t) -> Hashtbl.replace remaining m.L.Memory.id m.L.Memory.size_bytes)
    shared;
  let state_place = ref [] in
  let placement_errors = ref [] in
  List.iter
    (fun (st : Ir.state_obj) ->
      let s = st.Ir.st_name in
      let fit =
        List.find_opt
          (fun (m : L.Memory.t) -> Hashtbl.find remaining m.L.Memory.id >= footprint s)
          shared
      in
      match fit with
      | Some m ->
          Hashtbl.replace remaining m.L.Memory.id
            (Hashtbl.find remaining m.L.Memory.id - footprint s);
          state_place := (s, Mapping.In_memory m.L.Memory.id) :: !state_place
      | None -> placement_errors := Printf.sprintf "state '%s' fits nowhere" s :: !placement_errors)
    states;
  match !placement_errors with
  | e :: _ -> Error e
  | [] -> (
      let state_region s =
        match List.assoc s !state_place with
        | Mapping.In_memory m -> m
        | Mapping.In_accel _ -> assert false
      in
      let classes =
        L.Graph.placement_classes lnic
        |> List.filter (fun (c : L.Graph.placement_class) ->
               match c.L.Graph.rep.L.Unit_.kind with
               | L.Unit_.Accelerator k -> not (List.mem k options.Mapping.disallowed_accels)
               | L.Unit_.General_core _ -> true)
      in
      let weights = D.Graph.visits df ~prob in
      let node_unit = Array.make (Array.length df.D.Graph.nodes) (-1) in
      let total = ref 0. in
      let min_stage = ref 0 in
      let errors = ref [] in
      List.iter
        (fun nid ->
          let n = D.Graph.node df nid in
          let candidates =
            List.filter_map
              (fun (c : L.Graph.placement_class) ->
                let u = c.L.Graph.rep in
                if u.L.Unit_.stage < !min_stage then None
                else if D.Node.state n <> None && not (L.Unit_.is_general u) then
                  (* The greedy port placed all state in memory regions;
                     it never discovers that moving a table into an
                     accelerator's SRAM (the flow cache) is possible. *)
                  None
                else
                  let site =
                    Encode.site lnic ~entries:sizes.D.Cost.state_entries
                      ~state_footprint:footprint ~state_region u
                  in
                  Option.map (fun cost -> (u, cost)) (D.Cost.cycles site sizes n))
              classes
          in
          match List.sort (fun (_, a) (_, b) -> compare a b) candidates with
          | [] -> errors := Printf.sprintf "node n%d cannot run anywhere" nid :: !errors
          | (u, cost) :: _ ->
              node_unit.(nid) <- u.L.Unit_.id;
              min_stage := max !min_stage u.L.Unit_.stage;
              total := !total +. (weights.(nid) *. cost))
        (D.Graph.topo_order df);
      match !errors with
      | e :: _ -> Error e
      | [] ->
          Ok
            {
              Mapping.node_unit;
              state_place = List.rev !state_place;
              objective_cycles = !total;
              ilp_nodes = 0;
              ilp_vars = 0;
              ilp_gap = None;
            })

let map_nf ?(options = Mapping.default_options) lnic df ~sizes ~prob =
  try map_nf_exn ~options lnic df ~sizes ~prob
  with Ir.Unknown_state s ->
    Error
      (Printf.sprintf
         "NF references undeclared state '%s' (lint CLARA302 reports this \
          statically)"
         s)
