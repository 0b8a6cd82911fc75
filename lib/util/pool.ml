(* OCaml 5 Domain-based worker pool with per-job isolation.

   This is the one pool implementation in the repo: lib/explore's sweep
   executor and lib/nicsim's domain-parallel simulation both drive it.

   Jobs are indices 0..n-1 pulled from a shared mutex-guarded deque;
   each worker runs one job at a time, and everything a job raises is
   caught and recorded as [Failed] for that slot only — one bad cell
   never kills the batch.  Results land in a slot-per-job array, so the
   output ordering is the input ordering no matter how the scheduler
   interleaved the work.

   The worker domains are long-lived.  A [map] hands one worker loop to
   each of the domains it asks for; a domain is spawned only when no
   parked one is left, and between calls the domains park on condition
   variables.  A [map] called from inside a job therefore never waits
   for a domain its caller holds: it spawns one more.  Parked domains
   do not keep the process from exiting.

   Timeouts are cooperative: domains cannot be killed, so a monitor in
   the coordinating domain marks an over-budget slot [Failed] (first
   writer wins — the worker's eventual result is dropped) and [map]
   still waits for every worker loop before returning.  That bounds
   *reporting* latency of a pathological cell, not its CPU time; a
   genuinely non-terminating job would still hang the call, which no
   job in this codebase is. *)

type 'a outcome =
  | Done of 'a
  | Failed of string

type stats = {
  domains : int;
  jobs : int;
  busy_ns : int;          (* summed over workers: time inside jobs *)
  wall_ns : int;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* ---- Long-lived workers -------------------------------------------- *)

(* Counts down as a call's worker loops finish; [map] waits for zero. *)
type latch = { l_mu : Mutex.t; l_zero : Condition.t; mutable left : int }

type task = { run : unit -> unit; latch : latch }

(* A worker domain parks on its own [wake] until [submit] hands it a
   task in [next].  [idle] is a stack, most recently parked first, so
   back-to-back calls reuse the same domains.  Both are guarded by
   [mu]. *)
type worker = { wake : Condition.t; mutable next : task option }

let mu = Mutex.create ()
let idle : worker list ref = ref []

let count_down l =
  Mutex.lock l.l_mu;
  l.left <- l.left - 1;
  if l.left = 0 then Condition.broadcast l.l_zero;
  Mutex.unlock l.l_mu

(* A worker domain's life, entered and re-entered with [mu] held.  It
   parks again before it releases the task's latch, so the call that
   follows finds it instead of spawning another domain. *)
let rec serve w =
  while Option.is_none w.next do
    Condition.wait w.wake mu
  done;
  let t = Option.get w.next in
  w.next <- None;
  Mutex.unlock mu;
  (try t.run () with _ -> ());
  Mutex.lock mu;
  idle := w :: !idle;
  count_down t.latch;
  serve w

(* Hands [k] copies of [run] to parked domains, spawning the ones that
   are missing first, so a failed spawn raises with nothing handed out. *)
let submit k run latch =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) @@ fun () ->
  for _ = List.length !idle + 1 to k do
    let w = { wake = Condition.create (); next = None } in
    ignore (Domain.spawn (fun () -> Mutex.lock mu; serve w));
    idle := w :: !idle
  done;
  for _ = 1 to k do
    match !idle with
    | w :: rest ->
        idle := rest;
        w.next <- Some { run; latch };
        Condition.signal w.wake
    | [] -> assert false
  done

let await l =
  Mutex.lock l.l_mu;
  while l.left > 0 do
    Condition.wait l.l_zero l.l_mu
  done;
  Mutex.unlock l.l_mu

(* ---- map ------------------------------------------------------------ *)

(* The shared job deque: plain FIFO under a mutex.  Workers pop from
   the front; [n] jobs and <= 16 workers make contention irrelevant. *)
type deque = { q : int Queue.t; mu : Mutex.t }

let pop_front d =
  Mutex.lock d.mu;
  let r = Queue.take_opt d.q in
  Mutex.unlock d.mu;
  r

let describe_exn = function
  | Failure m -> m
  | Invalid_argument m -> "invalid argument: " ^ m
  | e -> Printexc.to_string e

let map ?(domains = 1) ?timeout_ms f n =
  if n < 0 then invalid_arg "Pool.map: negative job count";
  let domains = max 1 (min domains (max 1 n)) in
  let t_start = now_ns () in
  let deque = { q = Queue.create (); mu = Mutex.create () } in
  for i = 0 to n - 1 do
    Queue.add i deque.q
  done;
  let results : 'a outcome option array = Array.make n None in
  let started : int array = Array.make n 0 in (* ns timestamp, 0 = not yet *)
  let res_mu = Mutex.create () in
  let busy_ns = Atomic.make 0 in
  let outstanding = Atomic.make n in
  (* First writer wins: the worker that finished the job, or the
     timeout monitor that gave up on it. *)
  let deliver i r =
    Mutex.lock res_mu;
    (if Option.is_none results.(i) then begin
       results.(i) <- Some r;
       Atomic.decr outstanding
     end);
    Mutex.unlock res_mu
  in
  let worker () =
    let rec loop () =
      match pop_front deque with
      | None -> ()
      | Some i ->
          let t0 = now_ns () in
          Mutex.lock res_mu;
          started.(i) <- t0;
          Mutex.unlock res_mu;
          let r = try Done (f i) with e -> Failed (describe_exn e) in
          let dt = now_ns () - t0 in
          ignore (Atomic.fetch_and_add busy_ns dt);
          deliver i r;
          loop ()
    in
    loop ()
  in
  let latch = { l_mu = Mutex.create (); l_zero = Condition.create (); left = domains } in
  submit domains worker latch;
  (match timeout_ms with
  | None -> ()
  | Some budget_ms ->
      let budget_ns = budget_ms * 1_000_000 in
      (* Poll while any slot is unfilled; workers that popped a job
         record its start time, so an over-budget running job can be
         marked Failed without waiting for it. *)
      while Atomic.get outstanding > 0 do
        Unix.sleepf 0.01;
        let now = now_ns () in
        for i = 0 to n - 1 do
          let overdue =
            Mutex.lock res_mu;
            let o = Option.is_none results.(i) && started.(i) > 0 && now - started.(i) > budget_ns in
            Mutex.unlock res_mu;
            o
          in
          if overdue then
            deliver i
              (Failed (Printf.sprintf "timeout: exceeded %d ms budget" budget_ms))
        done
      done);
  await latch;
  let wall_ns = now_ns () - t_start in
  let results =
    Array.map
      (function
        | Some r -> r
        | None -> Failed "pool: job was never scheduled (internal error)")
      results
  in
  (results, { domains; jobs = n; busy_ns = Atomic.get busy_ns; wall_ns })

let utilization s =
  if s.wall_ns <= 0 || s.domains <= 0 then 0.
  else
    Float.min 1.
      (float_of_int s.busy_ns /. (float_of_int s.wall_ns *. float_of_int s.domains))
