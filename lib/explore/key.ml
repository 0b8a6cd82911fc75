(* Content-addressed cache keys.  A cell's key is the MD5 of a
   canonical preimage covering everything the predicted numbers depend
   on: the running executable, the NF source *text* (not its name), the
   target's name, the mapping options, and the workload profile plus
   PRNG seed.  Editing one NF source invalidates exactly that NF's
   cells; renaming an NF or reordering spec axes invalidates nothing.

   The targets, their cost functions and every model are compiled in,
   so the executable's digest covers each of them: a rebuild with any
   change misses every entry, and no hand-kept version or model
   fingerprint can go stale. *)

module L = Clara_lnic
module W = Clara_workload

(* Hashed once per process, on first use.  [None] when the executable
   cannot be read: a sweep then runs without the cache. *)
let build_digest =
  lazy
    (match Digest.file Sys.executable_name with
    | d -> Some (Digest.to_hex d)
    | exception Sys_error _ -> None)

let build () = Lazy.force build_digest

(* ---- canonical sub-strings ---------------------------------------- *)

let dist_repr = function
  | W.Dist.Fixed v -> Printf.sprintf "fixed:%d" v
  | W.Dist.Uniform (a, b) -> Printf.sprintf "uniform:%d:%d" a b
  | W.Dist.Bimodal (a, b, p) -> Printf.sprintf "bimodal:%d:%d:%g" a b p
  | W.Dist.Zipf (n, alpha) -> Printf.sprintf "zipf:%d:%g" n alpha

let profile_repr (p : W.Profile.t) =
  Printf.sprintf "tcp=%g;flows=%d;skew=%g;payload=%s;rate=%g;packets=%d;syn=%b"
    p.W.Profile.tcp_fraction p.W.Profile.flow_count p.W.Profile.flow_skew
    (dist_repr p.W.Profile.payload)
    p.W.Profile.rate_pps p.W.Profile.packets p.W.Profile.new_flow_syn

let options_repr (o : Clara_mapping.Mapping.options) =
  let accels =
    o.Clara_mapping.Mapping.disallowed_accels
    |> List.map L.Unit_.accel_name
    |> List.sort compare |> String.concat ","
  in
  let pins =
    o.Clara_mapping.Mapping.pin_state
    |> List.map (fun (s, lvl) -> s ^ ":" ^ L.Memory.level_name lvl)
    |> List.sort compare |> String.concat ","
  in
  let sharing =
    o.Clara_mapping.Mapping.sharing
    |> List.map (fun (s, v) -> s ^ ":" ^ Clara_analysis.Sharing.verdict_name v)
    |> List.sort compare |> String.concat ","
  in
  Printf.sprintf "accels=[%s];pins=[%s];node_limit=%d;sharing=[%s]" accels pins
    o.Clara_mapping.Mapping.node_limit sharing

(* ---- the key ------------------------------------------------------- *)

let canonical ~build ~salt (cell : Spec.cell) =
  String.concat "\n"
    [ "clara-sweep-key";
      "build=" ^ build;
      "salt=" ^ salt;
      "source-md5=" ^ Digest.to_hex (Digest.string cell.Spec.nf_source);
      "nic=" ^ cell.Spec.nic_name;
      "options=" ^ options_repr cell.Spec.options;
      "profile=" ^ profile_repr cell.Spec.profile;
      "seed=" ^ string_of_int cell.Spec.seed ]

let of_cell ~build ~salt cell = Digest.to_hex (Digest.string (canonical ~build ~salt cell))
