type metric =
  | Counter of Metrics.counter
  | Histogram of Metrics.histogram
  | Span of Span.stats

(* The registry is shared process-wide and, since lib/explore runs the
   pipeline on several domains at once, it must tolerate concurrent
   find-or-create and span entry/exit.  Structural mutation (the metrics
   hashtable, registration order, span stacks) is guarded by [mu];
   already-created counters and histogram buckets stay lock-free mutable
   ints — a racy [incr] can at worst lose an update, never corrupt
   memory.  Span nesting paths are tracked per domain so two workers
   inside "pipeline/lower" at once do not splice each other's stacks. *)
type t = {
  metrics : (string, metric) Hashtbl.t;
  mutable order_rev : string list; (* registration order, newest first *)
  stacks : (int, string list) Hashtbl.t; (* domain id -> active span paths *)
  mu : Mutex.t;
}

let create () =
  { metrics = Hashtbl.create 64; order_rev = []; stacks = Hashtbl.create 8;
    mu = Mutex.create () }

let default = create ()

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let register_unlocked t name m =
  Hashtbl.add t.metrics name m;
  t.order_rev <- name :: t.order_rev

let kind_name = function
  | Counter _ -> "counter"
  | Histogram _ -> "histogram"
  | Span _ -> "span"

let wrong_kind name ~want m =
  invalid_arg
    (Printf.sprintf "Obs.Registry: %S already registered as a %s (wanted %s)" name
       (kind_name m) want)

let counter t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.metrics name with
      | Some (Counter c) -> c
      | Some m -> wrong_kind name ~want:"counter" m
      | None ->
          let c = Metrics.make_counter name in
          register_unlocked t name (Counter c);
          c)

let histogram t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.metrics name with
      | Some (Histogram h) -> h
      | Some m -> wrong_kind name ~want:"histogram" m
      | None ->
          let h = Metrics.make_histogram name in
          register_unlocked t name (Histogram h);
          h)

let span_stats t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.metrics name with
      | Some (Span s) -> s
      | Some m -> wrong_kind name ~want:"span" m
      | None ->
          let s = Span.make name in
          register_unlocked t name (Span s);
          s)

let domain_id () = (Domain.self () :> int)

let stack_of t =
  match Hashtbl.find_opt t.stacks (domain_id ()) with
  | Some s -> s
  | None -> []

let current_path t =
  locked t (fun () -> match stack_of t with [] -> None | p :: _ -> Some p)

let span t name f =
  let did = domain_id () in
  let path =
    locked t (fun () ->
        let path =
          match stack_of t with [] -> name | p :: _ -> p ^ "/" ^ name
        in
        Hashtbl.replace t.stacks did (path :: stack_of t);
        path)
  in
  let st = span_stats t path in
  let t0 = Span.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Span.now_ns () - t0 in
      locked t (fun () ->
          Span.record st dt;
          (* A domain whose stack empties leaves the table, so domains
             that come and go leave no entries behind. *)
          match Hashtbl.find_opt t.stacks did with
          | Some [ _ ] -> Hashtbl.remove t.stacks did
          | Some (_ :: rest) -> Hashtbl.replace t.stacks did rest
          | Some [] | None -> ()))
    f

let find t name = locked t (fun () -> Hashtbl.find_opt t.metrics name)
let mem t name = locked t (fun () -> Hashtbl.mem t.metrics name)

let to_list t =
  locked t (fun () ->
      List.rev_map (fun name -> (name, Hashtbl.find t.metrics name)) t.order_rev)

let counter_value t name =
  match find t name with Some (Counter c) -> Metrics.value c | _ -> 0

let reset t =
  locked t (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Counter c -> Metrics.reset_counter c
          | Histogram h -> Metrics.reset_histogram h
          | Span s -> Span.reset s)
        t.metrics;
      Hashtbl.reset t.stacks)
