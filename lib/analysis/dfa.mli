(** Generic worklist dataflow over CIR CFGs.

    A pass supplies a join-semilattice (with [bottom] as the
    "unreached" element), a per-block transfer function, and optionally
    a per-edge transfer (how facts change along a specific CFG edge —
    this is what makes guard-sensitive path analysis expressible).
    [solve] iterates to the least fixed point with a FIFO worklist.

    Termination relies on the usual monotonicity contract: [transfer]
    and [edge] must be monotone.  Lattices with infinite (or very tall)
    ascending chains — e.g. {!Interval} — must supply [?widen]: after a
    block's input has strictly grown [widen_delay] times, further joins
    are replaced by the widening operator, which jumps moving bounds to
    a stable over-approximation.  A safety valve remains: if no fixed
    point is reached within an iteration budget proportional to the CFG
    size, [solve] returns [Budget_exhausted] (carrying the partial
    state) instead of spinning, and callers degrade to a diagnostic. *)

module type LATTICE = sig
  type t

  val bottom : t
  (** The "no information / unreached" element: identity for [join]. *)

  val equal : t -> t -> bool
  val join : t -> t -> t
end

type direction = Forward | Backward

module Make (L : LATTICE) : sig
  type result = {
    input : L.t array;   (** Fact at block entry (exit, if backward). *)
    output : L.t array;  (** Fact at block exit (entry, if backward). *)
    iterations : int;    (** Blocks processed before the fixed point. *)
  }

  type outcome =
    | Fixpoint of result
    | Budget_exhausted of { budget : int; prog : string; partial : result }
        (** The iteration budget ran out before a fixed point
            (non-monotone transfer, or an infinite-height lattice with
            no [?widen]).  [partial] holds the facts computed so far —
            an under-approximation, usable only for best-effort
            reporting. *)

  val solve :
    ?direction:direction ->
    ?edge:(src:Clara_cir.Ir.block -> dst:int -> L.t -> L.t) ->
    ?widen:(L.t -> L.t -> L.t) ->
    ?widen_delay:int ->
    init:L.t ->
    transfer:(Clara_cir.Ir.block -> L.t -> L.t) ->
    Clara_cir.Ir.program ->
    outcome
  (** [init] seeds the entry block (every [Ret] block, if backward).
      [edge ~src ~dst fact] transforms [src]'s output as it flows along
      the CFG edge [src.bid -> dst]; it defaults to the identity.  For
      [Backward], facts propagate against edge direction but [edge]
      still receives the edge as written in the program.

      [widen old joined] replaces the plain join once a block's input
      has strictly grown more than [widen_delay] (default 3) times; it
      must satisfy [leq joined (widen old joined)] and stabilize
      ascending chains. *)
end
