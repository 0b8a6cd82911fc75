(** Guard/path analysis (pass 3).

    The guard facts that hold on {e every} path into each block, as one
    fold over the blocks in {!Clara_dataflow.Graph.t.order}: a block's
    facts are the intersection of what its in-edges carry, and a [Cond]
    edge adds its outcome (positive on the then edge, negative on the
    else edge).  Back edges are left out: one only intersects its loop
    header's facts with a superset of them.  Only packet-stable atoms
    are tracked — [G_proto] and [G_flag] — because table hits, scan
    matches and counter thresholds can change value between two
    evaluations in the same packet's execution (an update between two
    lookups, two scans for different patterns), and a linter must not
    report false contradictions.

    Diagnostics:
    - CLARA201 (warn): a guard contradicts facts established on every
      path to it — its then-arm can never execute (e.g. a [G_proto 6]
      test nested under a [G_proto 17] branch).
    - CLARA202 (warn): a block in the block order — so
      [Patterns.eliminate_dead_blocks] keeps it — but every path to it
      carries contradictory guard facts.
    - CLARA203 (info): a guard implied by earlier guards; its else-arm
      is dead. *)

type fact = Clara_cir.Ir.guard * bool
(** An atomic guard and the polarity under which it is known to hold. *)

module L : sig
  type t = Unreached | Facts of fact list

  val join : t -> t -> t
  (** Set intersection, [Unreached] its identity.  The result is
      canonical (sorted, duplicate-free) whatever the order of the
      inputs. *)
end

val facts_of_guard : Clara_cir.Ir.guard -> bool -> fact list
(** Atomic facts implied by the guard evaluating to the given polarity.
    De Morgan over negated disjunctions: [not (a || b)] yields the
    negative facts of both arms.  Untrackable atoms yield nothing. *)

val conflicts : fact -> fact -> bool
(** Same atom under opposite polarity, or two different [G_proto]s both
    asserted. *)

val assuming : fact list -> Clara_cir.Ir.guard -> bool -> fact list option
(** Extend a consistent fact set with a guard outcome; [None] when the
    outcome contradicts the set (that branch is infeasible). *)

val analyze : Clara_dataflow.Graph.t -> Diag.t list
