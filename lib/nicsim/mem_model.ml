module Lru = Clara_util.Lru
module L = Clara_lnic

type region = Local | Ctm | Imem | Emem

type lat = { read : int; write : int; atomic : int }

type outcome = Hit | Miss | Uncached

type t = {
  local : lat;
  ctm : lat;
  imem : lat;
  emem : lat;
  emem_cache : Lru.t option;
  emem_hit_cycles : int;
  mutable hits : int;
  mutable misses : int;
  mutable last : outcome;
  (* The last strided EMEM run [access_run] applied line by line, and
     the cache's version right after it; [run_version] is -1 when none. *)
  mutable run_base : int;
  mutable run_stride : int;
  mutable run_count : int;
  mutable run_version : int;
}

let line_bytes = 64

let find_level (g : L.Graph.t) level =
  Array.to_list g.L.Graph.memories
  |> List.find_opt (fun m -> m.L.Memory.level = level)

let lat_of (m : L.Memory.t) =
  { read = m.L.Memory.read_cycles;
    write = m.L.Memory.write_cycles;
    atomic = m.L.Memory.atomic_cycles }

let create (g : L.Graph.t) =
  (* Missing levels fall back to the next slower one present. *)
  let ext = find_level g L.Memory.External in
  let int_ = find_level g L.Memory.Internal in
  let clu = find_level g L.Memory.Cluster in
  let loc = find_level g L.Memory.Local in
  let pick opts fallback =
    match List.find_opt Option.is_some opts with
    | Some (Some m) -> lat_of m
    | _ -> fallback
  in
  let emem_m = pick [ ext; int_; clu; loc ] { read = 500; write = 500; atomic = 550 } in
  let imem_m = pick [ int_; ext; clu; loc ] emem_m in
  let ctm_m = pick [ clu; int_ ] imem_m in
  let local_m = pick [ loc ] { read = 2; write = 2; atomic = 3 } in
  let cache, hit_cycles =
    match ext with
    | Some { L.Memory.cache = Some c; _ } ->
        ( Some (Lru.create ~capacity:(max 1 (c.L.Memory.cache_bytes / line_bytes))),
          c.L.Memory.hit_cycles )
    | _ -> (None, 0)
  in
  {
    local = local_m;
    ctm = ctm_m;
    imem = imem_m;
    emem = emem_m;
    emem_cache = cache;
    emem_hit_cycles = hit_cycles;
    hits = 0;
    misses = 0;
    last = Uncached;
    run_base = 0;
    run_stride = 0;
    run_count = 0;
    run_version = -1;
  }

let flat lat mode =
  match mode with `Read -> lat.read | `Write -> lat.write | `Atomic -> lat.atomic

let region_name = function
  | Local -> "local"
  | Ctm -> "ctm"
  | Imem -> "imem"
  | Emem -> "emem"

let hit_cycles t mode =
  match mode with `Read | `Write -> t.emem_hit_cycles | `Atomic -> flat t.emem mode

(* The outcome goes to [t.last] rather than into a returned tuple, so an
   access allocates nothing. *)
let access t region ~mode ~addr =
  match region with
  | Local ->
      t.last <- Uncached;
      flat t.local mode
  | Ctm ->
      t.last <- Uncached;
      flat t.ctm mode
  | Imem ->
      t.last <- Uncached;
      flat t.imem mode
  | Emem -> (
      match t.emem_cache with
      | None ->
          t.last <- Uncached;
          flat t.emem mode
      | Some cache ->
          let line = addr / line_bytes in
          if Lru.touch cache line then begin
            t.hits <- t.hits + 1;
            t.last <- Hit;
            hit_cycles t mode
          end
          else begin
            t.misses <- t.misses + 1;
            t.last <- Miss;
            flat t.emem mode
          end)

(* Applying a run of at most [capacity] accesses leaves every line it
   touched in the cache, the most recent ones in the run's order.  So if
   the cache has not changed since, applying the same run again hits
   every access and ends in the same recency order: only the hit count
   moves. *)
let access_run t region ~mode ~base ~stride ~count =
  match (region, t.emem_cache) with
  | Emem, Some cache
    when count > 0 && t.run_version = Lru.version cache && t.run_base = base
         && t.run_stride = stride && t.run_count = count ->
      t.hits <- t.hits + count;
      t.last <- Hit;
      count * hit_cycles t mode
  | _ ->
      let total = ref 0 in
      for i = 0 to count - 1 do
        total := !total + access t region ~mode ~addr:(base + (i * stride))
      done;
      (match (region, t.emem_cache) with
      | Emem, Some cache when count <= Lru.capacity cache ->
          t.run_base <- base;
          t.run_stride <- stride;
          t.run_count <- count;
          t.run_version <- Lru.version cache
      | _ -> ());
      !total

let clear t = Option.iter Lru.clear t.emem_cache

let last_outcome t = t.last

let emem_hits t = t.hits
let emem_misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
