(** The dataflow graph: nodes + traffic-direction edges (§3.3).

    Built from a CIR program by {!Build.of_ir}.  Edges follow control
    flow; loop back edges are excluded so the graph is a DAG, which the
    mapping ILP's pipeline-ordering constraints (§3.4) require.  Loop
    repetition is instead recorded on each node's [loop_trip]. *)

(** Where one packet goes after a block: the walk's one decision about
    the structured CFG.  {!walk}, {!visits}, the graph's edges, {!order}
    and the static bounds' loop cut all read it. *)
type step =
  | Stop  (** [Ret]: the packet ends, inside a loop body too. *)
  | Next of int
      (** A [Jump] forward, or a [Loop] header continuing into its body
          (walked once: its nodes carry the trip count). *)
  | Back of { header : int; exit : int }
      (** A [Jump] back to the enclosing loop [header]: the iteration
          ends and the packet continues at the loop's [exit].  The
          graph has no edge for it. *)
  | Branch of { guard : Clara_cir.Ir.guard; then_ : int; else_ : int }

type t = {
  nodes : Node.t array;
  edges : (int * int) list;  (** (src, dst) node ids; forward edges only. *)
  entry : int;
  cir : Clara_cir.Ir.program; (** The program the graph was built from. *)
  block_nodes : Node.t array array;
      (** Indexed by CIR block id: the block's nodes in id order.  Every
          block has at least one node. *)
  steps : step array;  (** Indexed by CIR block id. *)
  order : int array;
      (** The blocks the entry reaches, each after every block that
          steps or jumps to it: a topological order of {!steps} and of
          the CIR edges minus the [Back] ones.  Every forward analysis
          of the CFG is one fold in this order. *)
}

val node : t -> int -> Node.t
(** @raise Invalid_argument on a bad id. *)

val topo_order : t -> int list
(** Topological order over the forward edges; entry first.
    @raise Failure if the graph is not a DAG (a Build bug). *)

exception Walk_limit
(** A walk took more than 10 000 block steps, or {!Build} found a cycle
    while ordering the blocks: the CFG cycles outside a structured loop,
    which {!Clara_cir.Lower} never produces. *)

val walk : t -> guard:(Clara_cir.Ir.guard -> bool) -> visit:(Node.t -> unit) -> unit
(** The one traversal of the structured CFG for one packet: from the
    entry block it follows {!steps}, [visit] sees each executed block's
    nodes in id order and [guard] decides each [Branch] (true takes
    [then_]).
    @raise Walk_limit on a malformed CFG. *)

val visits : t -> prob:(Clara_cir.Ir.guard -> float) -> float array
(** Expected executions per packet, indexed by node id (a loop body's
    nodes count once; they carry the trip count): probability mass from
    the entry block over the same {!steps} as {!walk}, in {!order}.  A
    [Branch] splits its mass by [prob guard], a [Stop] absorbs it and
    every other step forwards it whole, so mass that returns inside a
    loop never reaches the loop's exit.  With every guard at 0 or 1 it
    is 1 on the nodes {!walk} visits and 0 elsewhere. *)

val emit_mass : t -> float array -> float
(** The sum of the given {!visits} over the [emit] nodes: the expected
    transmissions per packet. *)

val vcall_nodes : t -> Node.t list

val states : t -> Clara_cir.Ir.state_obj list
(** State objects of the underlying program, for Γ placement. *)

val pp : Format.formatter -> t -> unit
