(** Interval domain over floats with infinities, for the bounds
    abstract interpretation ({!Bounds}).

    [Bot] is the empty interval ("unreached"); [make lo hi] normalizes
    an inverted range to [Bot] and NaN endpoints to the conservative
    infinity.  The module satisfies {!Dfa.LATTICE} ([bottom] / [equal]
    / [join]) and additionally provides [widen]/[narrow] — the lattice
    has infinite ascending chains, so {!Dfa.Make}'s [?widen] hook is
    required for termination on cyclic CFGs. *)

type t = Bot | Iv of { lo : float; hi : float }

val bottom : t
val top : t

val make : float -> float -> t
(** [make lo hi]; [Bot] when [lo > hi]; NaN endpoints become infinite. *)

val const : float -> t
val is_bottom : t -> bool
val lo : t -> float
(** [+inf] on [Bot] (identity for interval min). *)

val hi : t -> float
(** [-inf] on [Bot] (identity for interval max). *)

val is_finite : t -> bool
val contains : t -> float -> bool
val equal : t -> t -> bool
val leq : t -> t -> bool
val join : t -> t -> t
val meet : t -> t -> t

val widen : t -> t -> t
(** [widen old joined]: endpoints that grew jump to infinity, so every
    ascending chain stabilizes in at most two widening steps. *)

val narrow : t -> t -> t
(** [narrow widened refined]: only infinite endpoints are refined, so a
    descending pass cannot oscillate. *)

val add : t -> t -> t

val mulf : float -> float -> float
(** Float product with [0 * inf = 0] (a never-executed unbounded block). *)

val mul : t -> t -> t
(** Endpoint products by {!mulf}. *)

val scale : float -> t -> t
val pp : Format.formatter -> t -> unit
val to_json : t -> Clara_util.Json.t
