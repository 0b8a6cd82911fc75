module W = Clara_workload

type components = {
  queue : int;
  compute : int;
  accel_wait : int;
  mem : int;
  wire : int;
}

let ctotal c = c.queue + c.compute + c.accel_wait + c.mem + c.wire

type packet = {
  p_seq : int;
  p_prog : int;
  p_thread : int;
  p_type : string;
  p_arrival : int;
  p_retire : int;
  p_comp : components;
}

type row = {
  r_prog : int;
  r_type : string;
  r_count : int;
  r_queue : float;
  r_compute : float;
  r_accel_wait : float;
  r_mem : float;
  r_wire : float;
  r_total : float;
  r_dominant : string;
}

type report = {
  packets : packet array;
  rows : row list;
  progs : string array;
  incomplete : int;
}

let type_label ~retire_arg =
  match W.Packet.proto_of_number (retire_arg / 2) with
  | W.Packet.Tcp -> if retire_arg land 1 = 1 then "tcp-syn" else "tcp"
  | W.Packet.Udp -> "udp"
  | W.Packet.Other _ -> "other"

(* Mutable per-packet accumulator while scanning the event stream. *)
type acc = {
  mutable a_prog : int;
  mutable a_thread : int;
  mutable a_arrival : int;
  mutable a_retire : int;
  mutable a_retire_arg : int;
  mutable has_arrival : bool;
  mutable has_retire : bool;
  mutable q : int;
  mutable c : int;
  mutable aw : int;
  mutable m : int;
  mutable w : int;
}

let analyze t =
  let evs = Trace.events t in
  let by_seq : (int, acc) Hashtbl.t = Hashtbl.create 1024 in
  let get seq =
    match Hashtbl.find_opt by_seq seq with
    | Some a -> a
    | None ->
        let a =
          { a_prog = 0; a_thread = -1; a_arrival = 0; a_retire = 0; a_retire_arg = 0;
            has_arrival = false; has_retire = false; q = 0; c = 0; aw = 0; m = 0; w = 0 }
        in
        Hashtbl.add by_seq seq a;
        a
  in
  Array.iter
    (fun (e : Trace.event) ->
      if e.Trace.seq >= 0 then begin
        let a = get e.Trace.seq in
        let d = e.Trace.t1 - e.Trace.t0 in
        match e.Trace.kind with
        | Trace.Arrival ->
            a.has_arrival <- true;
            a.a_arrival <- e.Trace.t0;
            a.a_prog <- e.Trace.prog
        | Trace.Queue_wait -> a.q <- a.q + d
        | Trace.Thread_bind -> a.a_thread <- e.Trace.arg
        | Trace.Compute | Trace.Accel_use -> a.c <- a.c + d
        | Trace.Accel_wait -> a.aw <- a.aw + d
        | Trace.Mem_access -> a.m <- a.m + d
        | Trace.Dma_wait | Trace.Dma_xfer | Trace.Hub -> a.w <- a.w + d
        | Trace.Retire ->
            a.has_retire <- true;
            a.a_retire <- e.Trace.t0;
            a.a_retire_arg <- e.Trace.arg
        | Trace.Dropped -> ()
      end)
    evs;
  let complete = ref [] and incomplete = ref 0 in
  Hashtbl.iter
    (fun seq a ->
      if a.has_arrival && a.has_retire then
        complete :=
          {
            p_seq = seq;
            p_prog = a.a_prog;
            p_thread = a.a_thread;
            p_type = type_label ~retire_arg:a.a_retire_arg;
            p_arrival = a.a_arrival;
            p_retire = a.a_retire;
            p_comp = { queue = a.q; compute = a.c; accel_wait = a.aw; mem = a.m; wire = a.w };
          }
          :: !complete
      else if a.has_retire then
        (* Retired, but the arrival (and possibly early spans) fell off
           the ring: attribution would under-count, so skip it. *)
        incr incomplete)
    by_seq;
  let packets = Array.of_list !complete in
  Array.sort (fun a b -> compare a.p_seq b.p_seq) packets;
  (* Group into (prog, type) rows plus an "all" row per program. *)
  let sums : (int * string, int ref * components ref) Hashtbl.t = Hashtbl.create 16 in
  let add key comp =
    let n, s =
      match Hashtbl.find_opt sums key with
      | Some v -> v
      | None ->
          let v = (ref 0, ref { queue = 0; compute = 0; accel_wait = 0; mem = 0; wire = 0 }) in
          Hashtbl.add sums key v;
          v
    in
    incr n;
    s :=
      {
        queue = !s.queue + comp.queue;
        compute = !s.compute + comp.compute;
        accel_wait = !s.accel_wait + comp.accel_wait;
        mem = !s.mem + comp.mem;
        wire = !s.wire + comp.wire;
      }
  in
  Array.iter
    (fun p ->
      add (p.p_prog, p.p_type) p.p_comp;
      add (p.p_prog, "all") p.p_comp)
    packets;
  let dominant ~queue ~compute ~accel_wait ~mem ~wire =
    let cands =
      [ ("queueing", queue); ("compute", compute); ("accel-wait", accel_wait);
        ("memory", mem); ("wire", wire) ]
    in
    fst (List.fold_left (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
           (List.hd cands) (List.tl cands))
  in
  let rows =
    Hashtbl.fold
      (fun (prog, ty) (n, s) acc ->
        let fn = float_of_int !n in
        let f v = float_of_int v /. fn in
        let r_queue = f !s.queue and r_compute = f !s.compute in
        let r_accel_wait = f !s.accel_wait and r_mem = f !s.mem and r_wire = f !s.wire in
        {
          r_prog = prog;
          r_type = ty;
          r_count = !n;
          r_queue;
          r_compute;
          r_accel_wait;
          r_mem;
          r_wire;
          r_total = r_queue +. r_compute +. r_accel_wait +. r_mem +. r_wire;
          r_dominant =
            dominant ~queue:r_queue ~compute:r_compute ~accel_wait:r_accel_wait ~mem:r_mem
              ~wire:r_wire;
        }
        :: acc)
      sums []
    |> List.sort (fun a b ->
           match compare a.r_prog b.r_prog with
           | 0 -> (
               (* "all" sorts after the concrete types. *)
               match (a.r_type = "all", b.r_type = "all") with
               | true, false -> 1
               | false, true -> -1
               | _ -> compare a.r_type b.r_type)
           | c -> c)
  in
  { packets; rows; progs = Trace.progs t; incomplete = !incomplete }

let slowest t report ~n =
  let by_lat = Array.copy report.packets in
  Array.sort
    (fun a b -> compare (b.p_retire - b.p_arrival) (a.p_retire - a.p_arrival))
    by_lat;
  let picked = Array.sub by_lat 0 (min n (Array.length by_lat)) in
  let want = Hashtbl.create 16 in
  Array.iteri (fun i p -> Hashtbl.replace want p.p_seq i) picked;
  let buckets = Array.make (Array.length picked) [] in
  Array.iter
    (fun (e : Trace.event) ->
      match Hashtbl.find_opt want e.Trace.seq with
      | Some i -> buckets.(i) <- e :: buckets.(i)
      | None -> ())
    (Trace.events t);
  Array.to_list
    (Array.mapi (fun i p -> (p, Array.of_list (List.rev buckets.(i)))) picked)

(* ------------------------------------------------------------------ *)
(* Utilization and queue-depth time series                             *)

let span_of_trace evs =
  Array.fold_left
    (fun (lo, hi) (e : Trace.event) -> (min lo e.Trace.t0, max hi e.Trace.t1))
    (max_int, min_int) evs

let prog_name progs i =
  if i >= 0 && i < Array.length progs then progs.(i) else Printf.sprintf "p%d" i

type util = { u_name : string; u_busy : int; u_util : float; u_series : float array }

let utilization ?interval t =
  let evs = Trace.events t in
  if Array.length evs = 0 then ((match interval with Some i -> max 1 i | None -> 1), [])
  else begin
    let t_lo, t_hi = span_of_trace evs in
    let span = max 1 (t_hi - t_lo) in
    let iv = match interval with Some i -> max 1 i | None -> max 1 (span / 64) in
    let nbuckets = ((span - 1) / iv) + 1 in
    let progs = Trace.progs t in
    let units : (string, int ref * int array) Hashtbl.t = Hashtbl.create 16 in
    let busy name a b =
      if b > a then begin
        let total, series =
          match Hashtbl.find_opt units name with
          | Some v -> v
          | None ->
              let v = (ref 0, Array.make nbuckets 0) in
              Hashtbl.add units name v;
              v
        in
        total := !total + (b - a);
        let k0 = (a - t_lo) / iv and k1 = (b - 1 - t_lo) / iv in
        for k = max 0 k0 to min (nbuckets - 1) k1 do
          let blo = t_lo + (k * iv) and bhi = t_lo + ((k + 1) * iv) in
          series.(k) <- series.(k) + (min b bhi - max a blo)
        done
      end
    in
    (* Threads: reconstruct bind -> retire occupancy per packet.  One
       aggregated unit per program (a NIC can have hundreds of threads);
       the busy total is normalized by the distinct threads seen. *)
    let report = analyze t in
    let thread_pool : (string, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 4 in
    Array.iter
      (fun p ->
        if p.p_thread >= 0 then begin
          let name = prog_name progs p.p_prog ^ "/threads" in
          let pool =
            match Hashtbl.find_opt thread_pool name with
            | Some s -> s
            | None ->
                let s = Hashtbl.create 64 in
                Hashtbl.add thread_pool name s;
                s
          in
          Hashtbl.replace pool p.p_thread ();
          busy name (p.p_arrival + p.p_comp.queue) p.p_retire
        end)
      report.packets;
    (* Shared units straight from the spans. *)
    Array.iter
      (fun (e : Trace.event) ->
        match e.Trace.kind with
        | Trace.Accel_use -> busy e.Trace.label e.Trace.t0 e.Trace.t1
        | Trace.Dma_xfer ->
            busy (Printf.sprintf "dma-%s[%d]" e.Trace.label e.Trace.arg) e.Trace.t0 e.Trace.t1
        | Trace.Mem_access -> busy ("mem-" ^ e.Trace.label) e.Trace.t0 e.Trace.t1
        | _ -> ())
      evs;
    let out =
      Hashtbl.fold
        (fun name (total, series) acc ->
          let lanes =
            match Hashtbl.find_opt thread_pool name with
            | Some pool -> max 1 (Hashtbl.length pool)
            | None -> 1
          in
          let fl = float_of_int lanes in
          {
            u_name = (if lanes > 1 then Printf.sprintf "%s(x%d)" name lanes else name);
            u_busy = !total;
            u_util = float_of_int !total /. (float_of_int span *. fl);
            u_series =
              Array.mapi
                (fun k b ->
                  let w = min (t_lo + ((k + 1) * iv)) t_hi - (t_lo + (k * iv)) in
                  if w <= 0 then 0. else float_of_int b /. (float_of_int w *. fl))
                series;
          }
          :: acc)
        units []
      |> List.sort (fun a b -> compare a.u_name b.u_name)
    in
    (iv, out)
  end

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let pp_report fmt r =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "%-12s %-8s %7s %9s %9s %10s %9s %9s %9s  %s@,"
    "program" "type" "pkts" "queue" "compute" "accel-wait" "mem" "wire" "total" "verdict";
  List.iter
    (fun row ->
      Format.fprintf fmt "%-12s %-8s %7d %9.1f %9.1f %10.1f %9.1f %9.1f %9.1f  %s@,"
        (prog_name r.progs row.r_prog)
        row.r_type row.r_count row.r_queue row.r_compute row.r_accel_wait row.r_mem
        row.r_wire row.r_total row.r_dominant)
    r.rows;
  if r.incomplete > 0 then
    Format.fprintf fmt "(%d packets skipped: timelines truncated by the trace ring)@,"
      r.incomplete;
  Format.fprintf fmt "@]"

let pp_slowest fmt picked =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (p, evs) ->
      Format.fprintf fmt "packet #%d (%s, prog %d, thr %d): %d cycles@,"
        p.p_seq p.p_type p.p_prog p.p_thread (p.p_retire - p.p_arrival);
      Array.iter
        (fun (e : Trace.event) ->
          if e.Trace.t1 > e.Trace.t0 then
            Format.fprintf fmt "  %8d..%-8d %-11s %s@," e.Trace.t0 e.Trace.t1
              (Trace.kind_name e.Trace.kind) e.Trace.label
          else
            Format.fprintf fmt "  %8d          %-11s %s@," e.Trace.t0
              (Trace.kind_name e.Trace.kind) e.Trace.label)
        evs)
    picked;
  Format.fprintf fmt "@]"

let pp_utilization fmt (iv, units) =
  Format.fprintf fmt "@[<v>unit utilization (interval %d cycles):@," iv;
  List.iter
    (fun u ->
      let spark =
        String.concat ""
          (Array.to_list
             (Array.map
                (fun v ->
                  let ramp = [| " "; "."; ":"; "-"; "="; "#" |] in
                  ramp.(min 5 (int_of_float (v *. 5.99))))
                u.u_series))
      in
      Format.fprintf fmt "  %-16s %5.1f%% |%s|@," u.u_name (100. *. u.u_util) spark)
    units;
  Format.fprintf fmt "@]"
