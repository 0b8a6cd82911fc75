(* On-disk, content-addressed result cache.  One JSON file per key
   under the cache directory; entries carry their own key so a file
   whose name and content disagree (truncated copy, hand edit) is
   rejected.  Every failure mode on the read side — missing file,
   unreadable file, parse error, key mismatch — degrades to a miss;
   the cache can always be deleted wholesale.  Writes go through a
   temp file + rename so a crashed sweep never leaves a half-written
   entry behind for the next run to trip over. *)

module J = Clara_util.Json

type t = { dir : string }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let create ~dir =
  mkdir_p dir;
  { dir }

let valid_key k =
  k <> "" && String.for_all (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false) k

let path_of t key = Filename.concat t.dir (key ^ ".json")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [lookup t ~key] is the payload stored under [key], or [None]. *)
let lookup t ~key =
  if not (valid_key key) then None
  else
    let path = path_of t key in
    match read_file path with
    | exception Sys_error _ -> None
    | raw -> (
        match J.parse raw with
        | Error _ -> None
        | Ok doc -> (
            match (J.member "key" doc, J.member "payload" doc) with
            | Some (J.String k), Some payload when k = key -> Some payload
            | _ -> None))

let store t ~key payload =
  if not (valid_key key) then invalid_arg "Cache.store: malformed key";
  mkdir_p t.dir;
  let doc =
    J.Obj [ ("key", J.String key); ("payload", payload) ]
  in
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf ".tmp-%s-%d" key (Unix.getpid ()))
  in
  let oc = open_out_bin tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         J.to_channel oc doc;
         output_char oc '\n')
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp (path_of t key)

let entries t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> 0
  | files ->
      Array.fold_left
        (fun n f -> if Filename.check_suffix f ".json" then n + 1 else n)
        0 files
