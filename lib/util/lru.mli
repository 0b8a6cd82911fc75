(** Bounded LRU set over integer keys.

    Backs the simulator's EMEM cache (keys = 64-byte line addresses),
    its flow-cache SRAM and table contents (keys = flow hashes), and the
    predictor's seen-flow and eSwitch caches.

    Representation: the recency list is a doubly-linked list of slot
    numbers held in [int] arrays ([prev]/[next]/[keys]), and an
    open-addressing index (linear probing, backward-shift deletion, an
    inlined integer hash) maps each key to its slot.  The arrays start
    at 64 slots and double up to [capacity], so a large, sparsely used
    set costs little until it fills.  A hit, a miss and an eviction at
    full size store only immediate ints: they allocate nothing and take
    no write barrier.  Only a growth step allocates.

    Each of the four arrays is paged: a spine of pages of at most 256
    ints, one short page while it holds fewer, and full pages beyond.
    A page fits the minor heap, so growth past 256 slots keeps the full
    pages it has, appends new ones and rebuilds the index in fresh
    pages, and allocates no major-heap block until a spine itself
    outgrows 256 pages (an index past 65,536 entries).  A set that a
    run fills and drops therefore leaves its pages to die young.  An
    access pays one more load (the page) than a flat array. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity <= 0]. *)

val mem : t -> int -> bool
(** Pure membership test; does not touch recency. *)

val touch : t -> int -> bool
(** [touch t k]: true (and refreshed) when [k] was present; false (and
    inserted, evicting the least-recent entry if full) otherwise. *)

val size : t -> int
val capacity : t -> int

val version : t -> int
(** A change counter: it moves on every insert (eviction included),
    every reorder and every {!clear}, and on nothing else — a touch of
    the most-recent key leaves it as it was.  Equal versions mean the
    same set in the same recency order. *)

val clear : t -> unit
(** Empties the set; keeps the arrays at their grown length. *)
