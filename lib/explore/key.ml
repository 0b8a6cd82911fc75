(* Content-addressed cache keys.  A cell's key is the MD5 of a
   canonical preimage covering everything the predicted numbers depend
   on: the NF source *text* (not its name), a fingerprint of the LNIC
   model, the mapping options, the workload profile plus PRNG seed, and
   a code-version salt.  Editing one NF source invalidates exactly that
   NF's cells; renaming an NF or reordering spec axes invalidates
   nothing.

   [version_salt] must be bumped whenever the cost model, the mapping
   encoder, or the predictor changes meaning — it is the only guard
   against stale results across code changes that the LNIC fingerprint
   cannot see. *)

module L = Clara_lnic
module W = Clara_workload
module P = Clara_lnic.Params

let version_salt = "clara-explore-v2"

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

let op_name = function
  | P.Alu -> "alu"
  | P.Mul -> "mul"
  | P.Div -> "div"
  | P.Fp -> "fp"
  | P.Move -> "move"
  | P.Branch -> "branch"
  | P.Hash -> "hash"
  | P.Load -> "load"
  | P.Store -> "store"
  | P.Atomic -> "atomic"
  | P.Call -> "call"

(* Structural fingerprint of the LNIC model: units, memories, link
   count and the scalar parameter-table entries.  Cost functions are
   closures and cannot be serialized — drift inside them is what
   [version_salt] is for. *)
let fingerprint_lnic (g : L.Graph.t) =
  let b = Buffer.create 512 in
  Buffer.add_string b g.L.Graph.name;
  Array.iter
    (fun u -> Buffer.add_string b (Format.asprintf "|%a" L.Unit_.pp u))
    g.L.Graph.units;
  Array.iter
    (fun m -> Buffer.add_string b (Format.asprintf "|%a" L.Memory.pp m))
    g.L.Graph.memories;
  Buffer.add_string b (Printf.sprintf "|hubs=%d|links=%d" (Array.length g.L.Graph.hubs)
       (List.length g.L.Graph.links));
  let p = g.L.Graph.params in
  Buffer.add_string b ("|params=" ^ p.P.pname);
  List.iter
    (fun (op, c) -> Buffer.add_string b (Printf.sprintf ";%s=%g" (op_name op) c))
    p.P.core_op_cycles;
  Buffer.add_string b
    (Printf.sprintf ";fpu=%g;ctm_thresh=%d" p.P.fpu_emulation_factor
       p.P.packet_ctm_threshold);
  List.iter
    (fun (k, bytes) ->
      Buffer.add_string b
        (Printf.sprintf ";sram.%s=%d" (L.Unit_.accel_name k) bytes))
    p.P.accel_sram_bytes;
  Buffer.contents b

(* ---- the key ------------------------------------------------------- *)

let canonical ~salt (cell : Spec.cell) =
  let nic_fp =
    match L.Targets.find cell.Spec.nic_name with
    | Some g -> fingerprint_lnic g
    | None -> "unknown:" ^ cell.Spec.nic_name
  in
  String.concat "\n"
    [ "clara-sweep-key";
      "version=" ^ version_salt;
      "salt=" ^ salt;
      "source-md5=" ^ Digest.to_hex (Digest.string cell.Spec.nf_source);
      "nic=" ^ nic_fp;
      "options=" ^ options_repr cell.Spec.options;
      "profile=" ^ profile_repr cell.Spec.profile;
      "seed=" ^ string_of_int cell.Spec.seed ]

let of_cell ~salt cell = Digest.to_hex (Digest.string (canonical ~salt cell))
