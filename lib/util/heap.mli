(** Binary min-heap of ints.

    Allocation-free after construction (amortized): the slots grow as
    needed and are reused across pushes/pops.  The first slots are one
    flat array sized at {!create}, which doubles while it stays within
    one page of 256 ints; growth past that appends 256-int pages, so
    growing never allocates a major-heap block (a [capacity] over 256
    is one block of that size from the start).  The nicsim engine keys
    it on packet completion times so that out-of-order completions
    retire as soon as simulated time passes them. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is the initial number of slots (default 16). *)

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
