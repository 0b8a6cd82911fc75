type 'a t = {
  queues : 'a Queue.t array;
  weights : int array;
  credit : int array;
  mutable cursor : int;     (* tenant currently holding the grant *)
  mutable occupancy : int;  (* total queued items *)
}

let check_weights ~who weights =
  if Array.length weights = 0 then invalid_arg (who ^ ": no tenants");
  Array.iteri
    (fun i w ->
      if w <= 0 then
        invalid_arg (Printf.sprintf "%s: tenant %d has non-positive weight %d" who i w))
    weights

let create ~weights =
  check_weights ~who:"Scheduler.create" weights;
  {
    queues = Array.init (Array.length weights) (fun _ -> Queue.create ());
    weights = Array.copy weights;
    credit = Array.copy weights;
    cursor = 0;
    occupancy = 0;
  }

let tenants t = Array.length t.queues
let length t = t.occupancy
let credit t i = t.credit.(i)
let is_empty t = t.occupancy = 0

let enqueue t ~tenant x =
  Queue.push x t.queues.(tenant);
  t.occupancy <- t.occupancy + 1

(* Stage 1: keep the grant on [cursor] while it has credit and backlog;
   otherwise advance round-robin.  When a full pass finds backlog but no
   credit anywhere, the round is over: replenish every credit to its
   weight.  Terminates in at most 2n probes because occupancy > 0
   guarantees a backlogged tenant with fresh credit after replenish. *)
let next t =
  if t.occupancy = 0 then None
  else begin
    let n = Array.length t.queues in
    let rec grant scanned =
      if scanned >= n then begin
        Array.blit t.weights 0 t.credit 0 n;
        grant 0
      end
      else begin
        let i = t.cursor in
        if t.credit.(i) > 0 && not (Queue.is_empty t.queues.(i)) then i
        else begin
          t.cursor <- (i + 1) mod n;
          grant (scanned + 1)
        end
      end
    in
    let i = grant 0 in
    (* Stage 2: serve the granted tenant's queue head. *)
    let x = Queue.pop t.queues.(i) in
    t.occupancy <- t.occupancy - 1;
    t.credit.(i) <- t.credit.(i) - 1;
    if t.credit.(i) = 0 || Queue.is_empty t.queues.(i) then
      t.cursor <- (i + 1) mod n;
    Some (i, x)
  end

let drain t f =
  let rec go () =
    match next t with
    | None -> ()
    | Some (i, x) ->
        f i x;
        go ()
  in
  go ()

let split ~total ~weights =
  check_weights ~who:"Scheduler.split" weights;
  let n = Array.length weights in
  let total = max 0 total in
  let wsum = Array.fold_left ( + ) 0 weights in
  let parts = Array.map (fun w -> total * w / wsum) weights in
  (* Floor division loses up to n-1 units; hand the remainder out one
     each to the lowest-indexed tenants so the parts sum to [total]. *)
  let rem = ref (total - Array.fold_left ( + ) 0 parts) in
  Array.iteri
    (fun i p ->
      if !rem > 0 then begin
        parts.(i) <- p + 1;
        decr rem
      end)
    parts;
  (* Every tenant must stay runnable.  When total >= n a zero part
     implies some other part >= 2 (pigeonhole), so take the unit from
     the currently largest allocation and conservation holds; when
     total < n conservation is impossible and the clamp wins. *)
  let largest () =
    let j = ref 0 in
    Array.iteri (fun i p -> if p > parts.(!j) then j := i) parts;
    !j
  in
  Array.iteri
    (fun i p ->
      if p = 0 then begin
        if total >= n then begin
          let j = largest () in
          parts.(j) <- parts.(j) - 1
        end;
        parts.(i) <- 1
      end)
    parts;
  if total >= n then assert (Array.fold_left ( + ) 0 parts = total);
  parts
