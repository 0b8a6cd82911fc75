type arch = On_path | Off_path | Host_only

let arch_name = function
  | On_path -> "on-path"
  | Off_path -> "off-path"
  | Host_only -> "host"

(* Answers to the three unit-to-memory questions the cost model asks per
   access, built once from [links] so each answer is an array read. *)
type index = {
  weights : int option array array;
      (* [unit][memory]: weight of the first access link, as a scan finds it *)
  reach : (Memory.t * int) list array;  (* per unit, fastest first *)
  local : int option array;             (* per unit *)
  max_access : int;
}

type t = {
  name : string;
  arch : arch;
  units : Unit_.t array;
  memories : Memory.t array;
  hubs : Hub.t array;
  links : Link.t list;
  params : Params.t;
  index : index;
}

let in_range arr i = i >= 0 && i < Array.length arr

(* Links with out-of-range ids stay out of the index; [Validate] reports
   them from [links]. *)
let build_index units memories links =
  let weights = Array.map (fun _ -> Array.make (Array.length memories) None) units in
  let reach = Array.make (Array.length units) [] in
  let max_access = ref 0 in
  List.iter
    (fun l ->
      match l.Link.kind with
      | Link.Access (u, m) when in_range units u && in_range memories m ->
          let w = l.Link.weight_cycles in
          if Option.is_none weights.(u).(m) then weights.(u).(m) <- Some w;
          reach.(u) <- (memories.(m), w) :: reach.(u);
          max_access := max !max_access w
      | _ -> ())
    links;
  let reach =
    Array.map
      (fun r ->
        List.rev r
        |> List.sort (fun (m1, w1) (m2, w2) ->
               compare (m1.Memory.read_cycles + w1) (m2.Memory.read_cycles + w2)))
      reach
  in
  (* Fastest reachable region of level Local (register/stack traffic);
     falls back to the fastest reachable region of any level. *)
  let local_of r =
    match List.find_opt (fun (m, _) -> m.Memory.level = Memory.Local) r with
    | Some (m, _) -> Some m.Memory.id
    | None -> ( match r with (m, _) :: _ -> Some m.Memory.id | [] -> None)
  in
  { weights; reach; local = Array.map local_of reach; max_access = !max_access }

let make ~name ~arch ~units ~memories ~hubs ~links ~params =
  { name; arch; units; memories; hubs; links; params;
    index = build_index units memories links }

let update ?name ?units ?memories ?hubs ?links ?params t =
  let ( // ) o d = Option.value o ~default:d in
  make ~name:(name // t.name) ~arch:t.arch ~units:(units // t.units)
    ~memories:(memories // t.memories) ~hubs:(hubs // t.hubs) ~links:(links // t.links)
    ~params:(params // t.params)

let get what arr i =
  if in_range arr i then arr.(i)
  else invalid_arg (Printf.sprintf "Lnic.Graph: bad %s id %d" what i)

let unit_ t i = get "unit" t.units i
let memory t i = get "memory" t.memories i
let hub t kind = Array.find_opt (fun h -> h.Hub.kind = kind) t.hubs

let general_cores t =
  Array.to_list t.units |> List.filter Unit_.is_general

let freq_mhz t =
  match general_cores t with
  | u :: _ -> u.Unit_.freq_mhz
  | [] -> invalid_arg "Lnic.Graph.freq_mhz: NIC has no general cores"

let accelerators t =
  Array.to_list t.units |> List.filter (fun u -> not (Unit_.is_general u))

let find_accelerator t kind =
  Array.to_list t.units |> List.find_opt (fun u -> Unit_.is_accelerator u kind)

(* The fast-path-miss penalty of an off-path NIC: the fabric hub models
   the eSwitch -> core upcall queue, so its per-packet cost is what a
   missed packet pays before the software slow path runs.  On-path NICs
   may also have a fabric hub (core-to-core switching), but there a miss
   never changes domains, so the upcall charge is zero. *)
let upcall_cycles t =
  match t.arch with
  | On_path | Host_only -> 0
  | Off_path -> (
      match hub t `Fabric with Some h -> h.Hub.per_packet_cycles | None -> 0)

let access_weight t ~unit_id ~mem_id =
  let w = t.index.weights in
  if in_range w unit_id && in_range w.(unit_id) mem_id then w.(unit_id).(mem_id) else None

let access_cycles t ~unit_id ~mem_id mode =
  match access_weight t ~unit_id ~mem_id with
  | None -> None
  | Some w -> Some (Memory.cycles (memory t mem_id) mode + w)

let reachable_memories t ~unit_id =
  if in_range t.index.reach unit_id then t.index.reach.(unit_id) else []

let local_region t ~unit_id =
  if in_range t.index.local unit_id then t.index.local.(unit_id) else None

let max_access_weight t = t.index.max_access

let pipeline_ok t u1 u2 =
  u1 = u2 || (unit_ t u1).Unit_.stage <= (unit_ t u2).Unit_.stage

type placement_class = { rep : Unit_.t; members : int list }

(* Two units are interchangeable when they share kind, island, frequency and
   stage — then any mapping decision for one applies to all. *)
let placement_classes t =
  let key (u : Unit_.t) = (u.kind, u.island, u.freq_mhz, u.stage) in
  let table = Hashtbl.create 8 in
  let order = ref [] in
  Array.iter
    (fun u ->
      let k = key u in
      match Hashtbl.find_opt table k with
      | None ->
          Hashtbl.add table k (ref [ u.Unit_.id ]);
          order := (k, u) :: !order
      | Some l -> l := u.Unit_.id :: !l)
    t.units;
  List.rev_map
    (fun (k, rep) ->
      let members = List.rev !(Hashtbl.find table k) in
      { rep; members })
    !order

let total_threads t =
  List.fold_left (fun acc u -> acc + Unit_.threads u) 0 (general_cores t)

let slice t ~keep_num ~keep_den =
  if keep_num <= 0 || keep_den <= 0 || keep_num > keep_den then
    invalid_arg "Lnic.Graph.slice: fraction must be in (0, 1]";
  let scale n = max 1 (n * keep_num / keep_den) in
  let cores = general_cores t in
  let keep_cores = scale (List.length cores) in
  (* Take cores round-robin across islands so each island keeps a share
     and island memories never dangle. *)
  let interleaved =
    let by_island = Hashtbl.create 4 in
    List.iter
      (fun u ->
        let k = u.Unit_.island in
        let l = try Hashtbl.find by_island k with Not_found -> [] in
        Hashtbl.replace by_island k (u :: l))
      (List.rev cores);
    let groups = Hashtbl.fold (fun _ l acc -> l :: acc) by_island [] in
    let groups = List.sort (fun a b -> compare (List.hd a).Unit_.island (List.hd b).Unit_.island) groups in
    let rec round gs acc =
      if List.for_all (( = ) []) gs then List.rev acc
      else
        let heads, tails =
          List.fold_right
            (fun g (hs, ts) ->
              match g with [] -> (hs, [] :: ts) | h :: t -> (h :: hs, t :: ts))
            gs ([], [])
        in
        round tails (List.rev_append heads acc)
    in
    round groups []
  in
  let kept_core_ids =
    List.filteri (fun i _ -> i < keep_cores) interleaved
    |> List.map (fun u -> u.Unit_.id)
  in
  let keep_unit u =
    (not (Unit_.is_general u)) || List.mem u.Unit_.id kept_core_ids
  in
  let kept = List.filter keep_unit (Array.to_list t.units) in
  (* Renumber unit ids so the id = array-index invariant survives, and
     remap links accordingly. *)
  let remap = Hashtbl.create 16 in
  List.iteri (fun i u -> Hashtbl.add remap u.Unit_.id i) kept;
  let units = Array.of_list (List.mapi (fun i u -> { u with Unit_.id = i }) kept) in
  (* Memories of islands that lost every core are dropped; shared regions
     are scaled.  Memory ids are renumbered like unit ids. *)
  let kept_islands =
    Array.to_list units |> List.filter_map (fun u -> u.Unit_.island) |> List.sort_uniq compare
  in
  let keep_mem (m : Memory.t) =
    match m.Memory.island with None -> true | Some isl -> List.mem isl kept_islands
  in
  let kept_mems = List.filter keep_mem (Array.to_list t.memories) in
  let mem_remap = Hashtbl.create 16 in
  List.iteri (fun i m -> Hashtbl.add mem_remap m.Memory.id i) kept_mems;
  let memories =
    Array.of_list
      (List.mapi
         (fun i m ->
           let m = { m with Memory.id = i } in
           match m.Memory.level with
           | Memory.Local -> m
           | Memory.Cluster | Memory.Internal | Memory.External ->
               { m with
                 Memory.size_bytes = scale m.Memory.size_bytes;
                 cache =
                   Option.map
                     (fun c -> { c with Memory.cache_bytes = scale c.Memory.cache_bytes })
                     m.Memory.cache })
         kept_mems)
  in
  let hubs =
    Array.map (fun h -> { h with Hub.queue_capacity = scale h.Hub.queue_capacity }) t.hubs
  in
  let remap_link l =
    let u_ok u = Hashtbl.find_opt remap u in
    let m_ok m = Hashtbl.find_opt mem_remap m in
    match l.Link.kind with
    | Link.Access (u, m) -> (
        match (u_ok u, m_ok m) with
        | Some u', Some m' -> Some { l with Link.kind = Link.Access (u', m') }
        | _ -> None)
    | Link.Hierarchy (m1, m2) -> (
        match (m_ok m1, m_ok m2) with
        | Some a, Some b -> Some { l with Link.kind = Link.Hierarchy (a, b) }
        | _ -> None)
    | Link.Pipeline (u1, u2) -> (
        match (u_ok u1, u_ok u2) with
        | Some a, Some b -> Some { l with Link.kind = Link.Pipeline (a, b) }
        | _ -> None)
    | Link.Hub_edge (h, Link.U u) ->
        Option.map (fun u' -> { l with Link.kind = Link.Hub_edge (h, Link.U u') }) (u_ok u)
    | Link.Hub_edge (h, Link.M m) ->
        Option.map (fun m' -> { l with Link.kind = Link.Hub_edge (h, Link.M m') }) (m_ok m)
    | Link.Hub_edge (_, Link.H _) -> Some l
  in
  update t
    ~name:(Printf.sprintf "%s[%d/%d]" t.name keep_num keep_den)
    ~units ~memories ~hubs
    ~links:(List.filter_map remap_link t.links)

let pp fmt t =
  Format.fprintf fmt "LNIC %s (%s): %d units, %d memories, %d hubs, %d links@." t.name
    (arch_name t.arch)
    (Array.length t.units) (Array.length t.memories) (Array.length t.hubs)
    (List.length t.links);
  Array.iter (fun u -> Format.fprintf fmt "  %a@." Unit_.pp u) t.units;
  Array.iter (fun m -> Format.fprintf fmt "  %a@." Memory.pp m) t.memories;
  Array.iter (fun h -> Format.fprintf fmt "  %a@." Hub.pp h) t.hubs
