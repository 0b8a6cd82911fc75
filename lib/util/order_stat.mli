(** Exact order statistics over unboxed arrays.

    The simulator's run summary and the predictor's trace summary both
    take nearest-rank percentiles of about a thousand samples.  Stdlib
    [Array.sort] is a heapsort behind a comparison closure; these are
    in-place quicksorts (insertion sort below 16 elements) whose every
    comparison is a native one, and they sort a prefix so a growable
    sample buffer needs no copy. *)

val sort_ints : int array -> int -> unit
(** [sort_ints a n] sorts [a.(0)] .. [a.(n-1)] ascending, in place; the
    rest of [a] is untouched.
    @raise Invalid_argument unless [0 <= n <= Array.length a]. *)

val sort_floats : float array -> int -> unit
(** As {!sort_ints}, in the order of [compare] on floats: NaN equals
    itself and sorts before every other value. *)

val rank_index : n:int -> float -> int
(** Nearest-rank percentile index into [n >= 1] sorted samples: the
    [ceil (p * n)]-th smallest, 0-indexed and clamped to [[0, n-1]], so
    p50 of four samples is index 1. *)
