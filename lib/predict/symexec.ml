module D = Clara_dataflow
module Ir = Clara_cir.Ir
module P = Clara_lnic.Params

type decision = { guard : Clara_cir.Ir.guard; taken : bool }

type path = {
  decisions : decision list;
  cost_cycles : float;
  emits : bool;
  description : string;
}

let describe decisions =
  let part { guard; taken } =
    let yes s = if taken then s else "not(" ^ s ^ ")" in
    match guard with
    | Ir.G_proto 6 -> yes "tcp"
    | Ir.G_proto 17 -> yes "udp"
    | Ir.G_proto k -> yes (Printf.sprintf "proto=%d" k)
    | Ir.G_flag 2 -> yes "syn"
    | Ir.G_flag k -> yes (Printf.sprintf "flag=0x%x" k)
    | Ir.G_table_hit s -> yes (Printf.sprintf "%s-hit" s)
    | Ir.G_scan_match -> yes "scan-match"
    | Ir.G_count_exceeds -> yes "over-threshold"
    | Ir.G_opaque -> yes "cond"
    | Ir.G_not _ | Ir.G_or _ -> yes (Format.asprintf "%a" Ir.pp_guard guard)
  in
  match decisions with
  | [] -> "all packets"
  | ds -> String.concat " & " (List.map part ds)

(* Atomic guards underneath negation/disjunction, used for consistent
   resolution along a path. *)
let rec atoms = function
  | Ir.G_not g -> atoms g
  | Ir.G_or (a, b) -> atoms a @ atoms b
  | g -> [ g ]

(* Evaluate a guard under an assignment of atomic guards to booleans. *)
let rec eval_guard assign = function
  | Ir.G_not g -> not (eval_guard assign g)
  | Ir.G_or (a, b) -> eval_guard assign a || eval_guard assign b
  | g -> List.assoc g assign

(* Every assignment of [atoms] to booleans, the first atom true first;
   each comes back in reverse atom order. *)
let rec assignments acc = function
  | [] -> [ acc ]
  | a :: rest -> assignments ((a, true) :: acc) rest @ assignments ((a, false) :: acc) rest

(* Protocols are mutually exclusive: at most one G_proto atom may hold. *)
let feasible assign =
  List.length (List.filter (function Ir.G_proto _, true -> true | _ -> false) assign) <= 1

(* Each path is one run of {!D.Graph.walk}.  Every Cond is a choice
   point over the feasible assignments of its guard's atoms not yet
   decided on this run (all false is always one).  A run takes the
   picks in [script] at its first choice points and the first
   assignment after them; [run] returns the path and its choice points,
   last first, as (pick, number of options). *)
let enumerate ?(max_paths = 64) ~sizes lnic (df : D.Graph.t) mapping =
  let pricer = Pricer.create ~mapping lnic df in
  let sizes = Pricer.sizes pricer sizes in
  let wire = Pricer.wire lnic in
  let node_cost (n : D.Node.t) =
    match Pricer.price pricer sizes n with Some p -> p.D.Cost.total | None -> 0.
  in
  let run script =
    let trail = ref [] in
    let assign = ref [] and decisions = ref [] in
    let cost = ref 0. and emits = ref false in
    let guard () g =
      let undecided = List.filter (fun a -> not (List.mem_assoc a !assign)) (atoms g) in
      let options =
        List.filter (fun extra -> feasible (extra @ !assign)) (assignments [] undecided)
      in
      let depth = List.length !trail in
      let pick = if depth < Array.length script then script.(depth) else 0 in
      trail := (pick, List.length options) :: !trail;
      let extra = List.nth options pick in
      assign := extra @ !assign;
      (* Record only newly-decided atoms to keep descriptions short. *)
      decisions :=
        List.rev_append (List.map (fun (g, taken) -> { guard = g; taken }) extra) !decisions;
      eval_guard !assign g
    in
    D.Graph.walk df () ~guard ~visit:(fun () n ->
        cost := !cost +. node_cost n;
        emits :=
          !emits || match n.D.Node.kind with N_vcall v -> v.Ir.vc = P.V_emit | _ -> false);
    let decisions = List.rev !decisions in
    ( { decisions;
        cost_cycles =
          !cost +. Pricer.rx_tx_cycles wire ~bytes:sizes.D.Cost.packet_bytes ~emitted:!emits;
        emits = !emits;
        description = describe decisions },
      !trail )
  in
  (* The next script steps the last run's choice points like an
     odometer: the last one with an untried option advances and the
     later ones reset, which visits the paths in depth-first order. *)
  let rec next = function
    | [] -> None
    | (k, n) :: earlier when k + 1 < n ->
        Some (Array.of_list (List.rev (k + 1 :: List.map fst earlier)))
    | _ :: earlier -> next earlier
  in
  let rec loop script count acc =
    if count >= max_paths then acc
    else
      let path, trail = run script in
      match next trail with
      | None -> path :: acc
      | Some script -> loop script (count + 1) (path :: acc)
  in
  List.sort (fun a b -> compare b.cost_cycles a.cost_cycles) (loop [||] 0 [])

let pp_path fmt p =
  Format.fprintf fmt "%-40s %10.0f cyc %s" p.description p.cost_cycles
    (if p.emits then "emit" else "drop")
