module Ir = Clara_cir.Ir

type verdict = Read_only | Sync_vcall | Atomic | Racy

let verdict_name = function
  | Read_only -> "read_only"
  | Sync_vcall -> "sync_vcall"
  | Atomic -> "atomic"
  | Racy -> "racy"

(* Block ids where each kind of access to one state object occurs, in
   ascending order (first occurrence first — messages cite the head). *)
type access = {
  loads : int list;
  stores : int list;
  atomics : int list;
  vcall_writes : int list;
  vcall_reads : int list;
}

let empty =
  { loads = []; stores = []; atomics = []; vcall_writes = []; vcall_reads = [] }

let size_is_zero = function Ir.S_const 0 -> true | _ -> false

let collect (p : Ir.program) =
  let tbl = Hashtbl.create 8 in
  let get s = Option.value (Hashtbl.find_opt tbl s) ~default:empty in
  let add s f = Hashtbl.replace tbl s (f (get s)) in
  Array.iter
    (fun (b : Ir.block) ->
      let bid = b.Ir.bid in
      List.iter
        (fun instr ->
          match instr with
          | Ir.Load (Ir.L_state s) ->
              add s (fun a -> { a with loads = a.loads @ [ bid ] })
          | Ir.Store (Ir.L_state s) ->
              add s (fun a -> { a with stores = a.stores @ [ bid ] })
          | Ir.Atomic_op (Ir.L_state s) ->
              add s (fun a -> { a with atomics = a.atomics @ [ bid ] })
          | Ir.Vcall { state = Some s; state_reads; state_writes; _ } ->
              if not (size_is_zero state_writes) then
                add s (fun a -> { a with vcall_writes = a.vcall_writes @ [ bid ] });
              if not (size_is_zero state_reads) then
                add s (fun a -> { a with vcall_reads = a.vcall_reads @ [ bid ] })
          | _ -> ())
        b.Ir.instrs)
    p.Ir.blocks;
  get

let classify a =
  if a.stores <> [] then Racy
  else if a.atomics <> [] then Atomic
  else if a.vcall_writes <> [] then Sync_vcall
  else Read_only

(* A program is stateless for simulation purposes when no state object
   is ever written: every packet's cost then depends only on the packet
   itself, which is what licenses the engine's retired steady-state fast
   path. *)
let stateless (p : Ir.program) =
  let access = collect p in
  List.for_all
    (fun (st : Ir.state_obj) -> classify (access st.Ir.st_name) = Read_only)
    p.Ir.states

let analyze (p : Ir.program) =
  let access = collect p in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let verdicts =
    List.map
      (fun (st : Ir.state_obj) ->
        let s = st.Ir.st_name in
        let a = access s in
        let v = classify a in
        (match v with
        | Racy when a.loads <> [] ->
            emit
              (Diag.make ~block:(List.hd a.stores) ~code:"CLARA001"
                 ~severity:Diag.Error ~pass:"sharing"
                 (Printf.sprintf
                    "unsynchronized read-modify-write on state '%s': load in \
                     b%d, store in b%d; concurrent threads lose updates \
                     (use an atomic op, e.g. state_add, or pin to a \
                     single-threaded unit)"
                    s (List.hd a.loads) (List.hd a.stores)))
        | Racy ->
            emit
              (Diag.make ~block:(List.hd a.stores) ~code:"CLARA002"
                 ~severity:Diag.Warn ~pass:"sharing"
                 (Printf.sprintf
                    "unsynchronized store to shared state '%s' in b%d: \
                     last-writer-wins under concurrency"
                    s (List.hd a.stores)))
        | Atomic ->
            emit
              (Diag.make ~block:(List.hd a.atomics) ~code:"CLARA003"
                 ~severity:Diag.Info ~pass:"sharing"
                 (Printf.sprintf
                    "state '%s' is mutated with atomic ops; placement must \
                     support atomics"
                    s))
        | Sync_vcall | Read_only -> ());
        (s, v))
      p.Ir.states
  in
  (verdicts, List.rev !diags)
