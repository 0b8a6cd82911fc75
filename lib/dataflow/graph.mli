(** The dataflow graph: nodes + traffic-direction edges (§3.3).

    Built from a CIR program by {!Build.of_ir}.  Edges follow control
    flow; loop back edges are excluded so the graph is a DAG, which the
    mapping ILP's pipeline-ordering constraints (§3.4) require.  Loop
    repetition is instead recorded on each node's [loop_trip]. *)

type t = {
  nodes : Node.t array;
  edges : (int * int) list;  (** (src, dst) node ids; forward edges only. *)
  entry : int;
  cir : Clara_cir.Ir.program; (** The program the graph was built from. *)
  block_nodes : Node.t array array;
      (** Indexed by CIR block id: the block's nodes in id order.  Every
          block has at least one node. *)
}

val node : t -> int -> Node.t
(** @raise Invalid_argument on a bad id. *)

val successors : t -> int -> int list

val topo_order : t -> int list
(** Topological order over the forward edges; entry first.
    @raise Failure if the graph is not a DAG (a Build bug). *)

exception Walk_limit
(** A walk took more than 10 000 block steps: the CFG cycles outside a
    structured loop, which {!Clara_cir.Lower} never produces. *)

val walk : t -> guard:(Clara_cir.Ir.guard -> bool) -> visit:(Node.t -> unit) -> unit
(** The one traversal of the structured CFG for one packet, from the
    entry block: [visit] sees each executed block's nodes in id order;
    [guard] decides each [Cond] (true takes [then_]).  A loop body is
    walked once (its nodes carry the trip count), then the walk
    continues at the loop's exit; a [Ret] anywhere, including inside a
    loop body, ends the packet.
    @raise Walk_limit on a malformed CFG. *)

val vcall_nodes : t -> Node.t list

val states : t -> Clara_cir.Ir.state_obj list
(** State objects of the underlying program, for Γ placement. *)

val pp : Format.formatter -> t -> unit
