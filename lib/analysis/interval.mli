(** Interval domain over floats with infinities, for the bounds
    abstract interpretation ({!Bounds}).

    [Bot] is the empty interval ("unreached"); [make lo hi] normalizes
    an inverted range to [Bot] and NaN endpoints to the conservative
    infinity.  [join] is the hull, with [Bot] its identity; the bounds'
    execution counts join a block's in-edges with it in one pass over
    the acyclic block order, so no widening is needed. *)

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
val join : t -> t -> t
val meet : t -> t -> t

val add : t -> t -> t

val mulf : float -> float -> float
(** Float product with [0 * inf = 0] (a never-executed unbounded block). *)

val mul : t -> t -> t
(** Endpoint products by {!mulf}. *)

val scale : float -> t -> t
val pp : Format.formatter -> t -> unit
val to_json : t -> Clara_util.Json.t
