(* Recency list over slot numbers, in int arrays: slot [s] holds key
   [keys.(s)], its neighbours are [prev.(s)] and [next.(s)] (-1 at the
   ends), and the head is most-recent.  Slots [0, size) are live; an
   eviction reuses the victim's slot.  [index] is an open-addressing
   table (linear probing, load at most 1/2) from a key's hash to its
   slot, -1 where empty.  Every store is an immediate int, so a touch
   neither allocates nor pays a write barrier.  The arrays start small
   and double up to [capacity].  [version] moves on every change to
   the set or its order, so equal versions mean an unchanged cache. *)

type t = {
  capacity : int;
  mutable size : int;
  mutable keys : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable index : int array;  (* length a power of two *)
  mutable head : int;
  mutable tail : int;
  mutable version : int;
}

let initial_slots = 64

(* Fibonacci-style multiplicative mix; the low bits are taken after
   folding the high ones down. *)
let hash k =
  let h = k * 0x1f3d5b79a4c2e9d3 in
  h lxor (h lsr 29)

(* An empty index for [slots] slots: a power of two at least twice as
   long, so the load stays at most 1/2. *)
let empty_index slots =
  let rec pow2 p = if p >= 2 * slots then p else pow2 (2 * p) in
  Array.make (pow2 1) (-1)

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  let slots = min capacity initial_slots in
  { capacity; size = 0;
    keys = Array.make slots 0;
    prev = Array.make slots (-1);
    next = Array.make slots (-1);
    index = empty_index slots;
    head = -1; tail = -1; version = 0 }

let size t = t.size
let capacity t = t.capacity
let version t = t.version

(* The index position holding [k]'s slot, or the empty position where
   the probe for [k] stops. *)
let rec probe t k i =
  let s = Array.unsafe_get t.index i in
  if s < 0 || Array.unsafe_get t.keys s = k then i
  else probe t k ((i + 1) land (Array.length t.index - 1))

let position t k = probe t k (hash k land (Array.length t.index - 1))

let find t k = Array.unsafe_get t.index (position t k)

let mem t k = find t k >= 0

(* Backward-shift deletion: empty position [i], then move each later
   entry of its probe run whose home is not in (i, j] back into the
   hole, so every probe still meets its key before an empty position. *)
let rec shift t i j =
  let mask = Array.length t.index - 1 in
  let j = (j + 1) land mask in
  let s = Array.unsafe_get t.index j in
  if s < 0 then Array.unsafe_set t.index i (-1)
  else
    let home = hash (Array.unsafe_get t.keys s) land mask in
    let stays = if i <= j then i < home && home <= j else i < home || home <= j in
    if stays then shift t i j
    else begin
      Array.unsafe_set t.index i s;
      shift t j j
    end

let remove_key t k =
  let i = position t k in
  shift t i i

let insert_key t k s = Array.unsafe_set t.index (position t k) s

let unlink t s =
  let p = Array.unsafe_get t.prev s and n = Array.unsafe_get t.next s in
  if p >= 0 then Array.unsafe_set t.next p n else t.head <- n;
  if n >= 0 then Array.unsafe_set t.prev n p else t.tail <- p

let push_front t s =
  Array.unsafe_set t.prev s (-1);
  Array.unsafe_set t.next s t.head;
  if t.head >= 0 then Array.unsafe_set t.prev t.head s else t.tail <- s;
  t.head <- s

(* Doubles the slot arrays (up to [capacity]) and rebuilds the index
   at twice their length. *)
let grow t =
  let slots = min t.capacity (2 * Array.length t.keys) in
  let extend a fill =
    let b = Array.make slots fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.keys <- extend t.keys 0;
  t.prev <- extend t.prev (-1);
  t.next <- extend t.next (-1);
  t.index <- empty_index slots;
  for s = 0 to t.size - 1 do
    insert_key t (Array.unsafe_get t.keys s) s
  done

let touch t k =
  let s = find t k in
  if s >= 0 then begin
    if s <> t.head then begin
      unlink t s;
      push_front t s;
      t.version <- t.version + 1
    end;
    true
  end
  else begin
    let s =
      if t.size < t.capacity then begin
        if t.size = Array.length t.keys then grow t;
        let s = t.size in
        t.size <- s + 1;
        s
      end
      else begin
        let victim = t.tail in
        remove_key t (Array.unsafe_get t.keys victim);
        unlink t victim;
        victim
      end
    in
    Array.unsafe_set t.keys s k;
    insert_key t k s;
    push_front t s;
    t.version <- t.version + 1;
    false
  end

let clear t =
  Array.fill t.index 0 (Array.length t.index) (-1);
  t.size <- 0;
  t.head <- -1;
  t.tail <- -1;
  t.version <- t.version + 1
