(** The Clara Intermediate Representation (CIR, §3.3).

    Hardware-independent instructions grouped into basic blocks forming a
    CFG.  Framework calls appear as virtual calls ([Vcall]) that carry:
    - a {e symbolic size} (payload bytes, table entries, …) — component
      costs are functions over data size (§3.2, §4);
    - which state object they touch and how many reads/writes — the
      memory-placement decision Γ (§3.4) prices these accesses per region.

    Control flow is structured: conditional branches carry {e guards}
    describing the packet/state property they test, which is what lets the
    predictor resolve per-packet paths (§3.5); counted loops are
    represented by a [Loop] header with a symbolic trip count. *)

(** Symbolic sizes, resolved against a concrete packet + NF configuration
    at prediction time. *)
type size_expr =
  | S_const of int
  | S_payload            (** Payload bytes of the current packet. *)
  | S_packet             (** Total packet bytes. *)
  | S_header             (** Header bytes. *)
  | S_state_entries of string  (** Configured entries of a state object. *)
  | S_scaled of size_expr * float  (** ⌈scale·e⌉, e.g. entries per cache line. *)
  | S_plus of size_expr * int
  | S_opaque             (** Statically unknown (un-coarsened while loop). *)

(** Where a memory-touching instruction lands. *)
type loc =
  | L_local              (** Registers / per-thread local memory. *)
  | L_packet             (** Packet buffer (CTM, spilling to EMEM, §3.2). *)
  | L_state of string    (** A named state object; region chosen by Γ. *)

(** What a conditional branch tests; how the predictor resolves paths. *)
type guard =
  | G_proto of int       (** [hdr.proto == k]. *)
  | G_flag of int        (** [hdr.flags & k != 0] (e.g. SYN = 0x2). *)
  | G_table_hit of string  (** [found(lookup(t, …))]. *)
  | G_scan_match         (** DPI scan found a pattern. *)
  | G_count_exceeds      (** A counter/meter threshold test. *)
  | G_opaque             (** Unrecognized predicate. *)
  | G_not of guard
  | G_or of guard * guard

type vcall_info = {
  vc : Clara_lnic.Params.vcall;
  size : size_expr;
  state : string option;
  state_reads : size_expr;   (** Reads of [state] per invocation. *)
  state_writes : size_expr;
}

type instr =
  | Op of Clara_lnic.Params.op_class
  | Load of loc
  | Store of loc
  | Atomic_op of loc
  | Vcall of vcall_info

type terminator =
  | Jump of int
  | Cond of { guard : guard; then_ : int; else_ : int }
  | Loop of { body : int; exit : int; trip : size_expr }
      (** Structured counted loop: [body] runs [trip] times, then control
          reaches [exit].  Blocks inside the body that jump back to the
          loop header mark the end of one iteration. *)
  | Ret

type block = { bid : int; instrs : instr list; term : terminator }

type state_obj = {
  st_name : string;
  st_kind : Ast.state_kind;
  st_entries : int;
  st_entry_bytes : int;
}

type program = {
  prog_name : string;
  entry : int;
  blocks : block array;   (** Indexed by [bid]. *)
  states : state_obj list;
}

exception Unknown_state of string
(** A vcall or memory instruction names a state object the program never
    declared.  Raised instead of a bare [Not_found] so callers can
    surface the offending name (the cost-sanity lint pass reports the
    same condition statically as CLARA302). *)

val state_obj_opt : program -> string -> state_obj option

val state_obj : program -> string -> state_obj
(** @raise Unknown_state for an unknown state name. *)

val state_bytes : state_obj -> int
(** Total footprint: entries × entry size. *)

val successors : terminator -> int list
val block : program -> int -> block
(** @raise Invalid_argument on a bad block id. *)

val instr_state : instr -> string option
(** The state object an instruction loads, stores, updates or calls on,
    if any. *)

val loop_body : program -> header:int -> body:int -> exit:int -> int list
(** The blocks of a structured loop's body: those reachable from [body]
    without passing through the [header] (the back edge ends an
    iteration) or the [exit]. *)

val vcall :
  ?state:string -> ?reads:size_expr -> ?writes:size_expr ->
  Clara_lnic.Params.vcall -> size_expr -> instr
(** Convenience constructor; reads/writes default to 0. *)

val instr_count : program -> int
val vcalls_of : program -> vcall_info list

val simplify_guard : guard -> guard
(** Normalize a guard: eliminate double negation, collapse [G_or] with
    identical arms, and fold [G_not G_opaque] to [G_opaque] (negating an
    unrecognized predicate yields another unrecognized predicate).
    Idempotent; used by {!pp_guard} and the path-analysis lint pass. *)

val pp_size : Format.formatter -> size_expr -> unit

val pp_guard : Format.formatter -> guard -> unit
(** Prints the {!simplify_guard}-normal form. *)

(** Prints the guard exactly as constructed. *)
val pp_guard_raw : Format.formatter -> guard -> unit
val pp_instr : Format.formatter -> instr -> unit
val pp_program : Format.formatter -> program -> unit
