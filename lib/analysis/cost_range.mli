(** The range evaluator of {!Clara_dataflow.Cost}: the same terms priced
    as {!Interval}s instead of points.

    A node's range covers its cost under any admissible execution: any
    candidate unit, any candidate memory region, cache hit through miss,
    any packet size in the envelope, and — for stateful accelerator
    vcalls — the flow-cache hit regime at the fast end and the
    miss/upcall/table-walk regime at the slow end.  Only the access
    price ([[hit, flat + island slack]] instead of the locality blend),
    the trip rule and that miss regime differ from the point evaluator.
    {!Bounds} runs it before ILP placement, so a node's range is the
    hull over every unit that could execute it.  Ranges are
    non-negative; upper endpoints may be [infinity] (an [S_opaque] loop
    trip). *)

type sizes = {
  payload_bytes : Interval.t;
  packet_bytes : Interval.t;
  header_bytes : Interval.t;
  state_entries : string -> Interval.t;
  opaque_trip : Interval.t;  (** Typically [[1, inf)]: no derivable bound. *)
}

val trip : sizes -> Clara_cir.Ir.size_expr -> Interval.t
(** Loop-trip range: the lower end admits zero iterations, the upper end
    is floored at one execution. *)

val wire : Clara_lnic.Graph.t -> packet_bytes:Interval.t -> dir:[ `Rx | `Tx ] -> Interval.t
(** {!Clara_dataflow.Cost.wire} over the packet-size envelope. *)

type ctx

val ctx :
  Clara_lnic.Graph.t ->
  units:Clara_lnic.Unit_.t list ->
  state_regions:(string -> int list) ->
  packet_regions:int list ->
  state_footprint:(string -> int) ->
  sizes ->
  ctx
(** Candidate execution units and candidate regions per state and for
    packet data. *)

(** Per-axis ranges of one node. *)
type t = { compute : Interval.t; mem : Interval.t; accel : Interval.t }

val node : ctx -> Clara_dataflow.Node.t -> t option
(** The node's body, trip-free (callers multiply by {!trip} or by
    execution counts).  Each instruction is hulled over the candidate
    units that can run it; [None] when no candidate can run some
    instruction. *)
