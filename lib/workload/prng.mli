(** Deterministic pseudo-random numbers (splitmix64 + xoshiro256starstar).

    All randomness in Clara's workload generation flows through explicit
    generator values seeded by the caller, so every trace, figure and
    benchmark is reproducible bit-for-bit.  No global state.

    The state is four unboxed words, so {!int} and {!bool} draws
    allocate nothing. *)

type t

val create : seed:int64 -> t
(** Seeds the xoshiro256 state via splitmix64, as its authors recommend. *)

val copy : t -> t
val next : t -> int64
(** Uniform over all 2^64 values. *)

val int : t -> int -> int
(** [int g bound] is uniform in [[0, bound)].
    @raise Invalid_argument when [bound <= 0]. *)

val float : t -> float
(** Uniform in [[0, 1)]. *)

val bool : t -> float -> bool
(** [bool g p] is true with probability [p]. *)
