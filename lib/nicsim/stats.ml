module W = Clara_workload
module Order_stat = Clara_util.Order_stat

(* Raw samples live in segments of [seg_words] ints, newest first; only
   the head segment is ever written.  A block of that size still goes to
   the minor heap, so a run's samples usually die young there: a single
   array for a run's thousand samples would be a major-heap block per
   run, and perfbench's peak heap counts those. *)
let seg_words = 256

type seg = { a : int array; mutable len : int }

type t = {
  mutable segs : seg list;
  mutable n : int;
  mutable drops : int;
  (* Per-class latency sums as ints: a float field of this mixed
     record would box on every store.  Int partial sums stay far below
     2^53, so each converts to exactly the float a float fold gives. *)
  mutable tcp_sum : int;
  mutable tcp_n : int;
  mutable udp_sum : int;
  mutable udp_n : int;
  mutable syn_sum : int;
  mutable syn_n : int;
}

let create () =
  { segs = []; n = 0; drops = 0; tcp_sum = 0; tcp_n = 0; udp_sum = 0; udp_n = 0;
    syn_sum = 0; syn_n = 0 }

let record t ~proto ~syn ~latency_cycles =
  let s =
    match t.segs with
    | s :: _ when s.len < seg_words -> s
    | segs ->
        let s = { a = Array.make seg_words 0; len = 0 } in
        t.segs <- s :: segs;
        s
  in
  s.a.(s.len) <- latency_cycles;
  s.len <- s.len + 1;
  t.n <- t.n + 1;
  let c = latency_cycles in
  (match proto with
  | W.Packet.Tcp ->
      t.tcp_sum <- t.tcp_sum + c;
      t.tcp_n <- t.tcp_n + 1
  | W.Packet.Udp ->
      t.udp_sum <- t.udp_sum + c;
      t.udp_n <- t.udp_n + 1
  | W.Packet.Other _ -> ());
  if syn then begin
    t.syn_sum <- t.syn_sum + c;
    t.syn_n <- t.syn_n + 1
  end

let record_drop t = t.drops <- t.drops + 1

(* Gather the raw samples and sum the per-class accumulators; used to
   combine per-shard stats from a domain-parallel run before
   summarizing.  A full segment is never written again, so it is shared;
   a partial one is copied, so recording into either side later leaves
   the other as it was. *)
let merge ts =
  let segs =
    List.concat_map
      (fun t ->
        List.map
          (fun s -> if s.len = seg_words then s else { a = Array.copy s.a; len = s.len })
          t.segs)
      ts
  in
  let sumi f = List.fold_left (fun a t -> a + f t) 0 ts in
  {
    segs;
    n = sumi (fun t -> t.n);
    drops = sumi (fun t -> t.drops);
    tcp_sum = sumi (fun t -> t.tcp_sum);
    tcp_n = sumi (fun t -> t.tcp_n);
    udp_sum = sumi (fun t -> t.udp_sum);
    udp_n = sumi (fun t -> t.udp_n);
    syn_sum = sumi (fun t -> t.syn_sum);
    syn_n = sumi (fun t -> t.syn_n);
  }

type summary = {
  packets : int;
  drops : int;
  mean_cycles : float;
  p50_cycles : int;
  p99_cycles : int;
  max_cycles : int;
  tcp_mean : float;
  udp_mean : float;
  syn_mean : float;
}

(* How many samples of a sorted segment are [<= v]. *)
let count_le s v =
  let lo = ref 0 and hi = ref s.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if s.a.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  !lo

(* The [r]-th smallest (0-indexed) of sorted segments holding [lo] to
   [hi]: the least value [v] with more than [r] samples [<= v]. *)
let rank_value segs ~lo ~hi r =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if List.fold_left (fun c s -> c + count_le s mid) 0 segs > r then hi := mid
    else lo := mid + 1
  done;
  !lo

let summarize t =
  if t.n = 0 then
    { packets = 0; drops = t.drops; mean_cycles = 0.; p50_cycles = 0; p99_cycles = 0;
      max_cycles = 0; tcp_mean = Float.nan; udp_mean = Float.nan; syn_mean = Float.nan }
  else begin
    (* Each segment sorts in place, which nothing can observe: a summary
       and a merge depend on the multiset only.  Ranks then come from a
       search over values, so no array of all samples is built. *)
    let segs = List.filter (fun s -> s.len > 0) t.segs in
    let total = ref 0 and lo = ref max_int and hi = ref min_int in
    List.iter
      (fun s ->
        Order_stat.sort_ints s.a s.len;
        for i = 0 to s.len - 1 do
          total := !total + s.a.(i)
        done;
        lo := Int.min !lo s.a.(0);
        hi := Int.max !hi s.a.(s.len - 1))
      segs;
    let pct p = rank_value segs ~lo:!lo ~hi:!hi (Order_stat.rank_index ~n:t.n p) in
    let div_or_nan s n = if n = 0 then Float.nan else float_of_int s /. float_of_int n in
    {
      packets = t.n;
      drops = t.drops;
      mean_cycles = float_of_int !total /. float_of_int t.n;
      p50_cycles = pct 0.5;
      p99_cycles = pct 0.99;
      max_cycles = !hi;
      tcp_mean = div_or_nan t.tcp_sum t.tcp_n;
      udp_mean = div_or_nan t.udp_sum t.udp_n;
      syn_mean = div_or_nan t.syn_sum t.syn_n;
    }
  end

let mean_ns s ~freq_mhz = s.mean_cycles *. 1000. /. float_of_int freq_mhz

(* Per-class means are NaN when the class is empty; print "n/a" rather
   than "nan". *)
let pp_mean fmt v =
  if Float.is_nan v then Format.pp_print_string fmt "n/a"
  else Format.fprintf fmt "%.0f" v

let pp_summary fmt s =
  Format.fprintf fmt
    "%d pkts (%d drops), mean %.0f cyc, p50 %d, p99 %d, max %d, tcp %a, udp %a, syn %a"
    s.packets s.drops s.mean_cycles s.p50_cycles s.p99_cycles s.max_cycles pp_mean
    s.tcp_mean pp_mean s.udp_mean pp_mean s.syn_mean
