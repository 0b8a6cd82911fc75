(** Array-backed binary min-heap of ints.

    Allocation-free after construction (amortized): the backing array
    doubles as needed and is reused across pushes/pops.  The nicsim
    engine keys it on packet completion times so that out-of-order
    completions retire as soon as simulated time passes them. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is the initial backing-array size (default 16). *)

val length : t -> int
val is_empty : t -> bool
val push : t -> int -> unit

val min_elt : t -> int
(** @raise Invalid_argument when empty. *)

val pop : t -> int
(** Removes and returns the minimum.
    @raise Invalid_argument when empty. *)

val replace_min : t -> int -> unit
(** [replace_min h x] is [ignore (pop h); push h x] in one sift.
    @raise Invalid_argument when empty. *)

val clear : t -> unit
