type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Shortest representation that round-trips: parse-back must give the
   same float, or cached results would drift by a ulp-scale error on
   every store/load cycle.  Most values fit the compact %g form. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    let short = Printf.sprintf "%.6g" f in
    if float_of_string short = f then short
    else
      let mid = Printf.sprintf "%.15g" f in
      if float_of_string mid = f then mid else Printf.sprintf "%.17g" f

let to_string ?(pretty = true) t =
  let buf = Buffer.create 256 in
  let pad depth = if pretty then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let nl () = if pretty then Buffer.add_char buf '\n' in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        nl ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (depth + 1);
            emit (depth + 1) item)
          items;
        nl ();
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        nl ();
        List.iteri
          (fun i (k, v) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (depth + 1);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf (if pretty then "\": " else "\":");
            emit (depth + 1) v)
          fields;
        nl ();
        pad depth;
        Buffer.add_char buf '}'
  in
  emit 0 t;
  Buffer.contents buf

let to_channel ?pretty oc t = output_string oc (to_string ?pretty t)

(* ---- parsing ------------------------------------------------------ *)

(* Recursive-descent parser for the subset we emit (plus standard JSON
   escapes).  Numbers without '.', 'e' or 'E' that fit in an int become
   [Int]; everything else numeric becomes [Float].  Errors carry the
   byte offset so a corrupted cache entry or a bad sweep spec points at
   the problem. *)

exception Parse_error of string * int

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, found %c" c c')
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "invalid \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let utf8_add buf cp =
    (* Encode one code point; surrogate pairs are handled by the caller. *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; advance ()
             | '\\' -> Buffer.add_char buf '\\'; advance ()
             | '/' -> Buffer.add_char buf '/'; advance ()
             | 'b' -> Buffer.add_char buf '\b'; advance ()
             | 'f' -> Buffer.add_char buf '\012'; advance ()
             | 'n' -> Buffer.add_char buf '\n'; advance ()
             | 'r' -> Buffer.add_char buf '\r'; advance ()
             | 't' -> Buffer.add_char buf '\t'; advance ()
             | 'u' ->
                 advance ();
                 let cp = hex4 () in
                 let cp =
                   if cp >= 0xD800 && cp <= 0xDBFF && !pos + 1 < n
                      && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                   then begin
                     advance ();
                     advance ();
                     let lo = hex4 () in
                     if lo >= 0xDC00 && lo <= 0xDFFF then
                       0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                     else fail "invalid low surrogate"
                   end
                   else cp
                 in
                 utf8_add buf cp
             | c -> fail (Printf.sprintf "invalid escape \\%c" c));
          loop ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_float = ref false in
    let rec digits () =
      match peek () with
      | Some ('0' .. '9') ->
          advance ();
          digits ()
      | Some ('.' | 'e' | 'E' | '+' | '-') ->
          is_float := true;
          advance ();
          digits ()
      | _ -> ()
    in
    digits ();
    let text = String.sub s start (!pos - start) in
    if text = "" || text = "-" then fail "invalid number";
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "invalid number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* Integer overflow: fall back to float. *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "invalid number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after value";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error (msg, pos) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" pos msg)

(* ---- accessors ---------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_int_opt = function Int i -> Some i | Float f when Float.is_integer f -> Some (int_of_float f) | _ -> None
let to_float_opt = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
