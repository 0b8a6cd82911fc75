(** Dataflow-graph nodes (§3.3).

    After coarsening, an NF is a graph whose nodes are either straightline
    compute segments or single virtual calls.  Virtual calls get their own
    nodes because they are the units that may map onto accelerators as a
    whole; compute segments can only run on general cores. *)

type kind =
  | N_compute of Clara_cir.Ir.instr list  (** Straightline instructions. *)
  | N_vcall of Clara_cir.Ir.vcall_info

type t = {
  id : int;
  kind : kind;
  block : int;       (** CIR block this segment came from. *)
  loop_trip : Clara_cir.Ir.size_expr option;
      (** When inside a counted loop body: per-packet repetitions. *)
}

val is_vcall : t -> bool
val vcall : t -> Clara_cir.Ir.vcall_info option
val state : t -> string option
(** The state object a node touches: a vcall's [state], or the first
    state access among a compute node's instructions.  {!Build} splits
    compute runs so a node touches at most one. *)

val instr_count : t -> int
val pp : Format.formatter -> t -> unit
