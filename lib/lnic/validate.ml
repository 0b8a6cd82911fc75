type error = { what : string; detail : string }

let err what fmt = Printf.ksprintf (fun detail -> { what; detail }) fmt

let errors (g : Graph.t) =
  let errs = ref [] in
  let add e = errs := e :: !errs in
  (* Dense ids. *)
  Array.iteri
    (fun i (u : Unit_.t) ->
      if u.id <> i then add (err "unit-id" "unit %s has id %d at index %d" u.name u.id i))
    g.units;
  Array.iteri
    (fun i (m : Memory.t) ->
      if m.id <> i then add (err "memory-id" "memory %s has id %d at index %d" m.name m.id i))
    g.memories;
  Array.iteri
    (fun i (h : Hub.t) ->
      if h.id <> i then add (err "hub-id" "hub %s has id %d at index %d" h.name h.id i))
    g.hubs;
  let nu = Array.length g.units
  and nm = Array.length g.memories
  and nh = Array.length g.hubs in
  let ep_ok = function
    | Link.U u -> u >= 0 && u < nu
    | Link.M m -> m >= 0 && m < nm
    | Link.H h -> h >= 0 && h < nh
  in
  List.iter
    (fun l ->
      if not (ep_ok (Link.src l) && ep_ok (Link.dst l)) then
        add (err "link-endpoint" "dangling link %s" (Format.asprintf "%a" Link.pp l)))
    g.links;
  (* Pipeline edges respect stages. *)
  List.iter
    (fun l ->
      match l.Link.kind with
      | Link.Pipeline (a, b) when ep_ok (Link.U a) && ep_ok (Link.U b) ->
          let sa = (Graph.unit_ g a).Unit_.stage and sb = (Graph.unit_ g b).Unit_.stage in
          if sa > sb then
            add (err "pipeline-stage" "pipeline edge u%d(stage %d) -> u%d(stage %d)" a sa b sb)
      | _ -> ())
    g.links;
  (* General cores must reach some memory. *)
  Array.iter
    (fun (u : Unit_.t) ->
      if Unit_.is_general u && Graph.reachable_memories g ~unit_id:u.id = [] then
        add (err "core-memory" "core %s reaches no memory region" u.name))
    g.units;
  (* Hierarchy edges: closer -> farther. *)
  List.iter
    (fun l ->
      match l.Link.kind with
      | Link.Hierarchy (a, b) when ep_ok (Link.M a) && ep_ok (Link.M b) ->
          let la = (Graph.memory g a).Memory.level and lb = (Graph.memory g b).Memory.level in
          if Memory.level_rank la >= Memory.level_rank lb then
            add
              (err "hierarchy-order" "hierarchy edge %s -> %s not faster-to-slower"
                 (Memory.level_name la) (Memory.level_name lb))
      | _ -> ())
    g.links;
  (* Island references. *)
  let islands =
    Array.to_list g.units
    |> List.filter_map (fun (u : Unit_.t) -> u.island)
    |> List.sort_uniq compare
  in
  Array.iter
    (fun (m : Memory.t) ->
      match m.island with
      | Some isl when not (List.mem isl islands) ->
          add (err "memory-island" "memory %s references unknown island %d" m.name isl)
      | _ -> ())
    g.memories;
  (* Parameter completeness. *)
  List.iter
    (fun op ->
      if not (List.mem_assoc op g.params.Params.core_op_cycles) then
        add (err "params-op" "missing op cost for %s" (Params.op_name op)))
    Params.all_op_classes;
  (* Off-path invariants: an eSwitch fast path is only meaningful when it
     is wired into the datapath and backed by flow-cache capacity, and an
     off-path NIC without a host DMA hub has no way to reach the host. *)
  Array.iter
    (fun (u : Unit_.t) ->
      if Unit_.is_accelerator u Unit_.Eswitch then begin
        let touches l =
          Link.src l = Link.U u.Unit_.id || Link.dst l = Link.U u.Unit_.id
        in
        if not (List.exists touches g.links) then
          add
            (err "eswitch-disconnected"
               "eSwitch %s has no links: attach it to the ingress/egress hubs \
                and give it a pipeline edge to the cores so misses can be \
                upcalled"
               u.Unit_.name);
        if Params.accel_sram g.params Unit_.Eswitch = 0 then
          add
            (err "eswitch-no-flow-cache"
               "eSwitch %s advertises a zero-capacity flow cache: every \
                packet would miss; set accel_sram_bytes for Eswitch"
               u.Unit_.name)
      end)
    g.units;
  if g.arch = Graph.Off_path && Option.is_none (Graph.hub g `Host_dma) then
    add
      (err "offpath-no-pcie"
         "off-path NIC %s has no Host_dma hub: add a PCIe DMA link so \
          slow-path packets can round-trip to the host"
         g.name);
  List.rev !errs

let is_valid g = errors g = []

let pp_error fmt e = Format.fprintf fmt "[%s] %s" e.what e.detail

let warnings (g : Graph.t) =
  let p = g.Graph.params in
  let warns = ref [] in
  let warn fmt = Printf.ksprintf (fun s -> warns := s :: !warns) fmt in
  (* Virtual calls nobody serves. *)
  List.iter
    (fun vc ->
      let on_core = Params.core_vcall_cost p vc <> None in
      let on_accel =
        Array.to_list g.Graph.units
        |> List.exists (fun (u : Unit_.t) ->
               match u.Unit_.kind with
               | Unit_.Accelerator k -> Params.accel_vcall_cost p k vc <> None
               | Unit_.General_core _ -> false)
      in
      if (not on_core) && not on_accel then
        warn "virtual call %s has no executor on this NIC (NFs using it are unmappable)"
          (Params.vcall_name vc))
    Params.all_vcalls;
  (* Accelerators present but without any cost table. *)
  Array.iter
    (fun (u : Unit_.t) ->
      match u.Unit_.kind with
      | Unit_.Accelerator k ->
          if not (List.mem_assoc k p.Params.accel_vcalls) then
            warn "accelerator %s has no cost table (it can execute nothing)" u.Unit_.name
      | Unit_.General_core _ -> ())
    g.Graph.units;
  (* Lookup accelerators without SRAM cannot host state. *)
  Array.iter
    (fun (u : Unit_.t) ->
      if Unit_.is_accelerator u Unit_.Lookup && Params.accel_sram p Unit_.Lookup = 0 then
        warn "lookup accelerator %s advertises no SRAM (state can never live there)"
          u.Unit_.name)
    g.Graph.units;
  Array.iter
    (fun (h : Hub.t) ->
      if h.Hub.queue_capacity <= 0 then
        warn "hub %s has zero queue capacity (every burst drops)" h.Hub.name)
    g.Graph.hubs;
  List.rev !warns
