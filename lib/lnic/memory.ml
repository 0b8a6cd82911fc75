type level = Local | Cluster | Internal | External

type cache = { cache_bytes : int; hit_cycles : int }

type t = {
  id : int;
  name : string;
  level : level;
  size_bytes : int;
  read_cycles : int;
  write_cycles : int;
  atomic_cycles : int;
  cache : cache option;
  island : int option;
}

let cycles t = function
  | `Read -> t.read_cycles
  | `Write -> t.write_cycles
  | `Atomic -> t.atomic_cycles

let level_rank = function Local -> 0 | Cluster -> 1 | Internal -> 2 | External -> 3

let level_name = function
  | Local -> "local"
  | Cluster -> "cluster"
  | Internal -> "internal"
  | External -> "external"

let pp fmt t =
  Format.fprintf fmt "%s#%d(%s,%dB,r=%dcyc%s)" t.name t.id (level_name t.level)
    t.size_bytes t.read_cycles
    (match t.cache with
    | None -> ""
    | Some c -> Printf.sprintf ",cache=%dB@%dcyc" c.cache_bytes c.hit_cycles)
