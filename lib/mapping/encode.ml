module I = Clara_ilp
module L = Clara_lnic
module D = Clara_dataflow
module Ir = Clara_cir.Ir
module M = I.Model
module LE = I.Lin_expr

let obs = Clara_obs.Registry.default
let c_vars = Clara_obs.Registry.counter obs "mapping.ilp.vars"
let c_constraints = Clara_obs.Registry.counter obs "mapping.ilp.constraints"
let c_bb_nodes = Clara_obs.Registry.counter obs "mapping.ilp.bb_nodes"
let c_racy_states = Clara_obs.Registry.counter obs "mapping.sharing.racy_states"

let c_hardened =
  Clara_obs.Registry.counter obs "mapping.sharing.hardened_instrs"

(* Packet data regions as seen from a unit: cluster memory while the
   packet fits the CTM threshold, external memory otherwise (§3.2). *)
let packet_regions lnic (u : L.Unit_.t) =
  let reach = L.Graph.reachable_memories lnic ~unit_id:u.L.Unit_.id in
  let pick first second =
    let at level = List.find_opt (fun (m, _) -> m.L.Memory.level = level) reach in
    match ((match at first with None -> at second | s -> s), reach) with
    | Some (m, _), _ -> m.L.Memory.id
    | None, (m, _) :: _ -> m.L.Memory.id
    | None, [] -> invalid_arg "Encode: unit reaches no memory"
  in
  { D.Cost.fits = pick L.Memory.Cluster L.Memory.External;
    spills = pick L.Memory.External L.Memory.Cluster;
    ctm_threshold = lnic.L.Graph.params.L.Params.packet_ctm_threshold }

let site lnic ~entries ~state_footprint ~state_region u =
  { D.Cost.lnic; exec_unit = u; state_region; state_footprint; entries;
    packet_regions = packet_regions lnic u }

let declared_entries p s =
  match Ir.state_obj_opt p s with Some o -> float_of_int o.Ir.st_entries | None -> 0.

let with_entries p (sizes : D.Cost.sizes) =
  { sizes with
    D.Cost.state_entries =
      (fun s ->
        let v = sizes.D.Cost.state_entries s in
        if v > 0. then v else declared_entries p s) }

let rat_of_cost c = I.Rat.of_int (int_of_float (Float.round c))

let rat_of_weight w =
  let scaled = int_of_float (Float.round (w *. 1000.)) in
  I.Rat.of_ints (max 0 scaled) 1000

let map_nf_exn ~(options : Mapping.options) ?dump_lp lnic (df : D.Graph.t) ~sizes ~prob =
  (* A state the sharing analysis judged racy gets hardened: its raw
     loads/stores are priced as atomics (the cost the program pays once
     the race is fixed), and it never moves into accelerator SRAM. *)
  let racy s =
    List.assoc_opt s options.Mapping.sharing = Some Clara_analysis.Sharing.Racy
  in
  List.iter
    (fun (_, v) ->
      if v = Clara_analysis.Sharing.Racy then
        Clara_obs.Metrics.incr c_racy_states)
    options.Mapping.sharing;
  let harden_node (n : D.Node.t) =
    match n.D.Node.kind with
    | D.Node.N_compute is
      when List.exists
             (function
               | (Ir.Load (Ir.L_state s) | Ir.Store (Ir.L_state s)) -> racy s
               | _ -> false)
             is ->
        let is' =
          List.map
            (function
              | (Ir.Load (Ir.L_state s) | Ir.Store (Ir.L_state s))
                when racy s ->
                  Clara_obs.Metrics.incr c_hardened;
                  Ir.Atomic_op (Ir.L_state s)
              | i -> i)
            is
        in
        { n with D.Node.kind = D.Node.N_compute is' }
    | _ -> n
  in
  let classes =
    L.Graph.placement_classes lnic
    |> List.filter (fun (c : L.Graph.placement_class) ->
           match c.L.Graph.rep.L.Unit_.kind with
           | L.Unit_.Accelerator k -> not (List.mem k options.Mapping.disallowed_accels)
           | L.Unit_.General_core _ -> true)
    |> Array.of_list
  in
  let nclasses = Array.length classes in
  let rep ci = classes.(ci).L.Graph.rep in
  let stage ci = (rep ci).L.Unit_.stage in
  let nodes = Array.map harden_node df.D.Graph.nodes in
  let weights = D.Graph.visits df ~prob in
  let states = D.Graph.states df in
  let cir = df.D.Graph.cir in
  let footprint s = Ir.state_bytes (Ir.state_obj cir s) in
  (* A node touching an undeclared state would otherwise surface as a
     generic "cannot run on any unit" (no y variable to pair with):
     [Ir.state_obj] raises [Unknown_state] here instead. *)
  Array.iter (fun n -> Option.iter (fun s -> ignore (Ir.state_obj cir s)) (D.Node.state n)) nodes;
  let sizes = with_entries cir sizes in
  (* A node's cycles on class [ci]'s representative, its state in
     [state_region]. *)
  let cycles ci ~state_region n =
    D.Cost.cycles
      (site lnic ~entries:sizes.D.Cost.state_entries ~state_footprint:footprint ~state_region
         (rep ci))
      sizes n
  in
  let shared_regions =
    Array.to_list lnic.L.Graph.memories
    |> List.filter (fun (m : L.Memory.t) ->
           match m.L.Memory.level with
           | L.Memory.Cluster | L.Memory.Internal | L.Memory.External -> true
           | L.Memory.Local -> false)
  in
  let touching s =
    Array.to_list nodes |> List.filter (fun n -> D.Node.state n = Some s)
  in
  let accel_kinds =
    Array.to_list classes
    |> List.filter_map (fun (c : L.Graph.placement_class) ->
           match c.L.Graph.rep.L.Unit_.kind with
           | L.Unit_.Accelerator k -> Some k
           | L.Unit_.General_core _ -> None)
  in
  let params = lnic.L.Graph.params in
  (* Accelerator kinds that could host state s entirely. *)
  let pinned s = List.assoc_opt s options.Mapping.pin_state in
  let accel_options s =
    List.filter
      (fun k ->
        pinned s = None
        && (not (racy s))
        && footprint s <= L.Params.accel_sram params k
        && List.for_all
             (fun (n : D.Node.t) ->
               match n.D.Node.kind with
               | D.Node.N_vcall v -> L.Params.accel_vcall_cost params k v.Ir.vc <> None
               | D.Node.N_compute _ -> false)
             (touching s))
      accel_kinds
  in
  let mem_options s =
    List.filter
      (fun (m : L.Memory.t) ->
        footprint s <= m.L.Memory.size_bytes
        && match pinned s with None -> true | Some lvl -> m.L.Memory.level = lvl)
      shared_regions
  in
  let model = M.create () in
  let errors = ref [] in
  (* ---- state placement variables ---- *)
  let y_mem = Hashtbl.create 16 (* (state, mem id) -> var *) in
  let y_acc = Hashtbl.create 16 (* (state, accel kind) -> var *) in
  List.iter
    (fun (st : Ir.state_obj) ->
      let s = st.Ir.st_name in
      let mems = mem_options s and accs = accel_options s in
      if mems = [] && accs = [] then
        errors := Printf.sprintf "state '%s' fits no memory region" s :: !errors
      else begin
        let vars = ref [] in
        List.iter
          (fun (m : L.Memory.t) ->
            let v = M.add_var model ~name:(Printf.sprintf "y_%s_m%d" s m.L.Memory.id) M.Binary in
            Hashtbl.add y_mem (s, m.L.Memory.id) v;
            vars := v :: !vars)
          mems;
        List.iter
          (fun k ->
            let v = M.add_var model ~name:(Printf.sprintf "y_%s_acc" s) M.Binary in
            Hashtbl.add y_acc (s, k) v;
            vars := v :: !vars)
          accs;
        M.add_constraint model ~name:(Printf.sprintf "place_%s" s)
          (LE.sum (List.map LE.var !vars))
          M.Eq I.Rat.one
      end)
    states;
  (* ---- node assignment variables ---- *)
  (* For each node: list of (class idx, cost, var, mem option) *)
  let x_vars = Hashtbl.create 64 (* (node, class) -> var list (z's share class) *) in
  let objective = ref LE.zero in
  (* Worst candidate cost per node.  Exactly one choice var per node is
     set in any feasible assignment, so the sum of per-node maxima is an
     inclusive upper bound on the optimum — handed to branch & bound as
     an initial incumbent-style cutoff (static bounds made concrete in
     the ILP's own rational arithmetic). *)
  let node_worst : (int, I.Rat.t) Hashtbl.t = Hashtbl.create 64 in
  let add_obj n cost var =
    let r = I.Rat.mul (rat_of_weight weights.(n)) (rat_of_cost cost) in
    (match Hashtbl.find_opt node_worst n with
    | Some w when not (I.Rat.( < ) w r) -> ()
    | _ -> Hashtbl.replace node_worst n r);
    objective := LE.add !objective (LE.var ~coeff:r var)
  in
  Array.iter
    (fun (n : D.Node.t) ->
      let nid = n.D.Node.id in
      let choice_vars = ref [] in
      let record ci v =
        Hashtbl.add x_vars (nid, ci) v;
        choice_vars := v :: !choice_vars
      in
      (match D.Node.state n with
      | None ->
          for ci = 0 to nclasses - 1 do
            match cycles ci ~state_region:(fun _ -> invalid_arg "stateless") n with
            | None -> ()
            | Some c ->
                let v =
                  M.add_var model ~name:(Printf.sprintf "x_n%d_c%d" nid ci) M.Binary
                in
                record ci v;
                add_obj nid c v
          done
      | Some s ->
          for ci = 0 to nclasses - 1 do
            match (rep ci).L.Unit_.kind with
            | L.Unit_.General_core _ ->
                List.iter
                  (fun (m : L.Memory.t) ->
                    match Hashtbl.find_opt y_mem (s, m.L.Memory.id) with
                    | None -> ()
                    | Some yv -> (
                        match cycles ci ~state_region:(fun _ -> m.L.Memory.id) n with
                        | None -> ()
                        | Some c ->
                            let zv =
                              M.add_var model
                                ~name:(Printf.sprintf "z_n%d_c%d_m%d" nid ci m.L.Memory.id)
                                M.Binary
                            in
                            record ci zv;
                            add_obj nid c zv;
                            (* z implies the state placement *)
                            M.add_constraint model
                              (LE.sub (LE.var zv) (LE.var yv))
                              M.Le I.Rat.zero))
                  shared_regions
            | L.Unit_.Accelerator k -> (
                match Hashtbl.find_opt y_acc (s, k) with
                | None -> ()
                | Some yv -> (
                    match cycles ci ~state_region:(fun _ -> invalid_arg "accel state") n with
                    | None -> ()
                    | Some c ->
                        let v =
                          M.add_var model ~name:(Printf.sprintf "xa_n%d_c%d" nid ci)
                            M.Binary
                        in
                        record ci v;
                        add_obj nid c v;
                        M.add_constraint model
                          (LE.sub (LE.var v) (LE.var yv))
                          M.Le I.Rat.zero))
          done);
      if !choice_vars = [] then
        errors := Printf.sprintf "node n%d cannot run on any unit" nid :: !errors
      else
        M.add_constraint model ~name:(Printf.sprintf "assign_n%d" nid)
          (LE.sum (List.map LE.var !choice_vars))
          M.Eq I.Rat.one)
    nodes;
  (* ---- pipeline ordering along dataflow edges ---- *)
  let stage_expr nid =
    let e = ref LE.zero in
    for ci = 0 to nclasses - 1 do
      List.iter
        (fun v -> e := LE.add !e (LE.var ~coeff:(I.Rat.of_int (stage ci)) v))
        (Hashtbl.find_all x_vars (nid, ci))
    done;
    !e
  in
  List.iter
    (fun (t, k) ->
      M.add_constraint model ~name:(Printf.sprintf "pipe_%d_%d" t k)
        (LE.sub (stage_expr k) (stage_expr t))
        M.Ge I.Rat.zero)
    df.D.Graph.edges;
  (* ---- capacities ---- *)
  List.iter
    (fun (m : L.Memory.t) ->
      let terms =
        List.filter_map
          (fun (st : Ir.state_obj) ->
            Option.map
              (fun v -> LE.var ~coeff:(I.Rat.of_int (footprint st.Ir.st_name)) v)
              (Hashtbl.find_opt y_mem (st.Ir.st_name, m.L.Memory.id)))
          states
      in
      if terms <> [] then
        M.add_constraint model
          ~name:(Printf.sprintf "cap_m%d" m.L.Memory.id)
          (LE.sum terms) M.Le
          (I.Rat.of_int m.L.Memory.size_bytes))
    shared_regions;
  List.iter
    (fun k ->
      let terms =
        List.filter_map
          (fun (st : Ir.state_obj) ->
            Option.map
              (fun v -> LE.var ~coeff:(I.Rat.of_int (footprint st.Ir.st_name)) v)
              (Hashtbl.find_opt y_acc (st.Ir.st_name, k)))
          states
      in
      if terms <> [] then
        M.add_constraint model (LE.sum terms) M.Le
          (I.Rat.of_int (L.Params.accel_sram params k)))
    accel_kinds;
  match !errors with
  | e :: _ -> Error e
  | [] -> (
      M.set_objective model M.Minimize !objective;
      Clara_obs.Metrics.add c_vars (M.num_vars model);
      Clara_obs.Metrics.add c_constraints (M.num_constraints model);
      Option.iter (fun path -> I.Lp_format.write_file path model) dump_lp;
      let initial_bound =
        Hashtbl.fold (fun _ w acc -> I.Rat.add w acc) node_worst I.Rat.zero
      in
      match
        Clara_obs.Registry.span obs "solve" (fun () ->
            I.Branch_bound.solve ~node_limit:options.Mapping.node_limit
              ~initial_bound model)
      with
      | { I.Branch_bound.status = I.Branch_bound.Infeasible; _ } ->
          Error "mapping ILP infeasible (pipeline ordering vs capacities)"
      | { I.Branch_bound.status = I.Branch_bound.Unbounded; _ } ->
          Error "mapping ILP unbounded (encoding bug)"
      | { I.Branch_bound.status = I.Branch_bound.Node_limit; incumbent = false; _ } ->
          Error "ILP node limit exceeded with no feasible mapping"
      | { I.Branch_bound.status = I.Branch_bound.Optimal | I.Branch_bound.Node_limit;
          objective = obj; values; nodes = bb; gap; _ } ->
          Clara_obs.Metrics.add c_bb_nodes bb;
          (* Decode. *)
          let node_unit =
            Array.map
              (fun (n : D.Node.t) ->
                let nid = n.D.Node.id in
                let found = ref None in
                for ci = 0 to nclasses - 1 do
                  List.iter
                    (fun v ->
                      if I.Rat.equal values.(v) I.Rat.one then found := Some ci)
                    (Hashtbl.find_all x_vars (nid, ci))
                done;
                match !found with
                | Some ci -> (rep ci).L.Unit_.id
                | None -> failwith "Encode: node left unassigned (solver bug)")
              nodes
          in
          let state_place =
            List.map
              (fun (st : Ir.state_obj) ->
                let s = st.Ir.st_name in
                let mem_hit =
                  List.find_opt
                    (fun (m : L.Memory.t) ->
                      match Hashtbl.find_opt y_mem (s, m.L.Memory.id) with
                      | Some v -> I.Rat.equal values.(v) I.Rat.one
                      | None -> false)
                    shared_regions
                in
                match mem_hit with
                | Some m -> (s, Mapping.In_memory m.L.Memory.id)
                | None -> (
                    let acc_hit =
                      List.find_opt
                        (fun k ->
                          match Hashtbl.find_opt y_acc (s, k) with
                          | Some v -> I.Rat.equal values.(v) I.Rat.one
                          | None -> false)
                        accel_kinds
                    in
                    match acc_hit with
                    | Some k -> (
                        match L.Graph.find_accelerator lnic k with
                        | Some u -> (s, Mapping.In_accel u.L.Unit_.id)
                        | None -> failwith "Encode: accel vanished")
                    | None -> failwith "Encode: state left unplaced (solver bug)"))
              states
          in
          Ok
            {
              Mapping.node_unit;
              state_place;
              objective_cycles = I.Rat.to_float obj;
              ilp_nodes = bb;
              ilp_vars = M.num_vars model;
              (* A node-limited solve yields a degraded-but-usable
                 mapping; the gap tells the caller how far off it can
                 be.  [gap] is [None] on exact solves. *)
              ilp_gap = Option.map I.Rat.to_float gap;
            })

let map_nf ?(options = Mapping.default_options) ?dump_lp lnic df ~sizes ~prob =
  try map_nf_exn ~options ?dump_lp lnic df ~sizes ~prob
  with Ir.Unknown_state s ->
    Error
      (Printf.sprintf
         "NF references undeclared state '%s' (lint CLARA302 reports this \
          statically)"
         s)
