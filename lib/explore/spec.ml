(* Declarative sweep specifications: a reproducible file (JSON) naming
   the NF x NIC x mapping-options x workload grid to evaluate, instead
   of a shell loop around the CLI.  [cells] expands the spec into a
   deterministic, stably-ordered list of point questions for the
   worker pool; the cache key (key.ml) is derived from cell *content*, so
   reordering axes in the file never invalidates cached results. *)

module W = Clara_workload
module M = Clara_mapping.Mapping
module J = Clara_util.Json

type cell = {
  id : int;               (* position in spec order; result ordering *)
  nf_name : string;
  nf_source : string;     (* resolved DSL text: cache key uses this *)
  nic_name : string;
  opt_name : string;
  options : M.options;
  wl_label : string;
  profile : W.Profile.t;
  seed : int;
}

type t = {
  name : string;
  salt : string;          (* user-chosen extra cache salt, "" default *)
  cells : cell list;
}

(* ---- axis combinators --------------------------------------------- *)

(* Cartesian product, left axis outermost (row-major). *)
let grid xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* Pointwise pairing; a length-1 axis broadcasts. *)
let zip xs ys =
  match (xs, ys) with
  | [ x ], ys -> Ok (List.map (fun y -> (x, y)) ys)
  | xs, [ y ] -> Ok (List.map (fun x -> (x, y)) xs)
  | xs, ys when List.length xs = List.length ys -> Ok (List.combine xs ys)
  | xs, ys ->
      Error
        (Printf.sprintf "zip: axis lengths differ (%d vs %d)" (List.length xs)
           (List.length ys))

(* ---- mapping-option variants -------------------------------------- *)

let option_variants =
  [ ("default", M.default_options);
    ( "no-flow-cache",
      { M.default_options with
        M.disallowed_accels = [ Clara_lnic.Unit_.Lookup; Clara_lnic.Unit_.Eswitch ] } );
    ( "no-accels",
      { M.default_options with
        M.disallowed_accels =
          [ Clara_lnic.Unit_.Parse; Clara_lnic.Unit_.Checksum;
            Clara_lnic.Unit_.Lookup; Clara_lnic.Unit_.Crypto;
            Clara_lnic.Unit_.Eswitch ] } ) ]

let options_of_name name = List.assoc_opt name option_variants

(* ---- workload axes ------------------------------------------------ *)

type workload_axes = {
  combine : [ `Grid | `Zip ];
  rates : float list;
  payloads : int list;
  flows : int list;
  tcps : float list;
  packets : int;
}

let default_axes =
  { combine = `Grid; rates = [ 60_000. ]; payloads = [ 300 ]; flows = [ 5_000 ];
    tcps = [ 0.8 ]; packets = 20_000 }

let label ~rate ~payload ~flows ~tcp =
  Printf.sprintf "r%g-p%d-f%d-t%g" rate payload flows tcp

let profile_of ~rate ~payload ~flows ~tcp ~packets =
  W.Profile.make ~payload:(W.Dist.Fixed payload) ~packets ~flow_count:flows
    ~rate_pps:rate ~tcp_fraction:tcp ()

(* Expand the four workload axes into labeled profiles. *)
let profiles (a : workload_axes) =
  let mk (((rate, payload), flows), tcp) =
    ( label ~rate ~payload ~flows ~tcp,
      profile_of ~rate ~payload ~flows ~tcp ~packets:a.packets )
  in
  match a.combine with
  | `Grid -> Ok (List.map mk (grid (grid (grid a.rates a.payloads) a.flows) a.tcps))
  | `Zip -> (
      match zip a.rates a.payloads with
      | Error e -> Error e
      | Ok rp -> (
          match zip rp a.flows with
          | Error e -> Error e
          | Ok rpf -> (
              match zip rpf a.tcps with
              | Error e -> Error e
              | Ok all -> Ok (List.map mk all))))

(* ---- programmatic construction ------------------------------------ *)

let make ?(name = "sweep") ?(salt = "") ?(seed = 42) ~nfs ~nics ~opts ~workloads () =
  let cells = ref [] in
  let id = ref 0 in
  List.iter
    (fun (nf_name, nf_source) ->
      List.iter
        (fun nic_name ->
          List.iter
            (fun (opt_name, options) ->
              List.iter
                (fun (wl_label, profile) ->
                  cells :=
                    { id = !id; nf_name; nf_source; nic_name; opt_name; options;
                      wl_label; profile; seed }
                    :: !cells;
                  incr id)
                workloads)
            opts)
        nics)
    nfs;
  { name; salt; cells = List.rev !cells }

(* ---- JSON parsing -------------------------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let collect f xs =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* v = f x in
      Ok (v :: acc))
    (Ok []) xs
  |> Result.map List.rev

let field_list j key =
  match J.member key j with
  | None -> Ok None
  | Some (J.List l) -> Ok (Some l)
  | Some _ -> Error (Printf.sprintf "%S must be a list" key)

let num_list j key ~default of_num =
  match field_list j key with
  | Error e -> Error e
  | Ok None -> Ok default
  | Ok (Some l) ->
      collect
        (fun v ->
          match of_num v with
          | Some x -> Ok x
          | None -> Error (Printf.sprintf "%S entries must be numbers" key))
        l

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One NF entry: a corpus name, a path to a .clara file, or an object
   {"name": N, "source": DSL} / {"name": N, "file": PATH}. *)
let resolve_nf j =
  match j with
  | J.String s when Filename.check_suffix s ".clara" || String.contains s '/' -> (
      match read_file s with
      | source -> Ok (Filename.remove_extension (Filename.basename s), source)
      | exception Sys_error e -> Error ("cannot read NF source: " ^ e))
  | J.String s -> (
      match Clara_nfs.Corpus.find s with
      | Some e -> Ok (s, e.Clara_nfs.Corpus.source)
      | None ->
          Error
            (Printf.sprintf "unknown NF %S (corpus: %s)" s
               (String.concat " " Clara_nfs.Corpus.names)))
  | J.Obj _ -> (
      match J.member "name" j |> Option.map (fun v -> J.to_string_opt v) with
      | Some (Some name) -> (
          match (J.member "source" j, J.member "file" j) with
          | Some (J.String src), _ -> Ok (name, src)
          | _, Some (J.String path) -> (
              match read_file path with
              | source -> Ok (name, source)
              | exception Sys_error e -> Error ("cannot read NF source: " ^ e))
          | _ -> Error (Printf.sprintf "NF %S needs a \"source\" or \"file\" field" name))
      | _ -> Error "NF objects need a string \"name\" field")
  | _ -> Error "NF entries must be strings or objects"

let axes_of_json j =
  match J.member "workload" j with
  | None -> Ok default_axes
  | Some w ->
      let* combine =
        match J.member "combine" w with
        | None -> Ok `Grid
        | Some (J.String "grid") -> Ok `Grid
        | Some (J.String "zip") -> Ok `Zip
        | Some _ -> Error "workload.combine must be \"grid\" or \"zip\""
      in
      let* rates = num_list w "rate" ~default:default_axes.rates J.to_float_opt in
      let* payloads = num_list w "payload" ~default:default_axes.payloads J.to_int_opt in
      let* flows = num_list w "flows" ~default:default_axes.flows J.to_int_opt in
      let* tcps = num_list w "tcp" ~default:default_axes.tcps J.to_float_opt in
      let* packets =
        match J.member "packets" w with
        | None -> Ok default_axes.packets
        | Some v -> (
            match J.to_int_opt v with
            | Some p when p > 0 -> Ok p
            | _ -> Error "workload.packets must be a positive integer")
      in
      Ok { combine; rates; payloads; flows; tcps; packets }

let of_json j =
  let name =
    match J.member "name" j with Some (J.String s) -> s | _ -> "sweep"
  in
  let salt = match J.member "salt" j with Some (J.String s) -> s | _ -> "" in
  let seed =
    match J.member "seed" j with
    | Some v -> ( match J.to_int_opt v with Some s -> s | None -> 42)
    | None -> 42
  in
  let* nf_entries =
    match field_list j "nfs" with
    | Error e -> Error e
    | Ok (Some (_ :: _ as l)) -> Ok l
    | Ok _ -> Error "spec needs a non-empty \"nfs\" list"
  in
  let* nfs = collect resolve_nf nf_entries in
  let* nic_names =
    match field_list j "nics" with
    | Error e -> Error e
    | Ok (Some (_ :: _ as l)) ->
        collect
          (fun v ->
            match J.to_string_opt v with
            | Some s -> Ok s
            | None -> Error "\"nics\" entries must be strings")
          l
    | Ok _ -> Error "spec needs a non-empty \"nics\" list"
  in
  let* nics =
    collect
      (fun n ->
        match Clara_lnic.Targets.of_name n with
        | Ok _ -> Ok n
        | Error e -> Error e)
      nic_names
  in
  let* opts =
    match field_list j "options" with
    | Error e -> Error e
    | Ok None -> Ok [ ("default", M.default_options) ]
    | Ok (Some l) ->
        collect
          (fun v ->
            match J.to_string_opt v with
            | Some s -> (
                match options_of_name s with
                | Some o -> Ok (s, o)
                | None ->
                    Error
                      (Printf.sprintf "unknown options variant %S (expected %s)" s
                         (String.concat "|" (List.map fst option_variants))))
            | None -> Error "\"options\" entries must be strings")
          l
  in
  let* axes = axes_of_json j in
  let* workloads = profiles axes in
  Ok (make ~name ~salt ~seed ~nfs ~nics ~opts ~workloads ())

let of_string s =
  let* j = J.parse s in
  of_json j

let load path =
  match read_file path with
  | s -> of_string s
  | exception Sys_error e -> Error ("cannot read spec: " ^ e)
