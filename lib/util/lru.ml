(* Recency list over slot numbers, in paged int arrays: slot [s] holds
   key [keys.(s)], its neighbours are [prev.(s)] and [next.(s)] (-1 at
   the ends), and the head is most-recent.  Slots [0, size) are live;
   an eviction reuses the victim's slot.  [index] is an open-addressing
   table (linear probing, load at most 1/2) from a key's hash to its
   slot, -1 where empty.  Every store is an immediate int, so a touch
   neither allocates nor pays a write barrier.  The slot arrays start
   small and double up to [capacity].  [version] moves on every change
   to the set or its order, so equal versions mean an unchanged cache.

   Each logical array is a spine of pages of at most [page] ints: while
   it is shorter it is one short page, and beyond that it is full pages.
   A page is small enough for the minor heap (Max_young_wosize), so
   growth past [page] slots appends pages rather than allocating one
   major-heap block per array. *)

let page_bits = 8
let page = 1 lsl page_bits
let page_mask = page - 1

type paged = int array array

let[@inline] get (a : paged) i =
  Array.unsafe_get (Array.unsafe_get a (i lsr page_bits)) (i land page_mask)

let[@inline] set (a : paged) i v =
  Array.unsafe_set (Array.unsafe_get a (i lsr page_bits)) (i land page_mask) v

(* [len] ints of [fill]. *)
let make len fill : paged =
  Array.init ((len + page - 1) / page) (fun p -> Array.make (Int.min page (len - (p * page))) fill)

(* [a] grown to [len] ints, the new ones [fill]; its full pages are
   kept as they are. *)
let extend (a : paged) len fill : paged =
  Array.init ((len + page - 1) / page) (fun p ->
      if p < Array.length a && Array.length a.(p) = page then a.(p)
      else begin
        let pg = Array.make (Int.min page (len - (p * page))) fill in
        if p < Array.length a then Array.blit a.(p) 0 pg 0 (Array.length a.(p));
        pg
      end)

type t = {
  capacity : int;
  mutable size : int;
  mutable slots : int;  (* length of [keys], [prev] and [next] *)
  mutable keys : paged;
  mutable prev : paged;
  mutable next : paged;
  mutable index : paged;
  mutable mask : int;  (* index length - 1; the length is a power of two *)
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

(* The index length for [slots] slots: a power of two at least twice
   as long, so the load stays at most 1/2. *)
let index_len slots =
  let rec pow2 p = if p >= 2 * slots then p else pow2 (2 * p) in
  pow2 1

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  let slots = min capacity initial_slots in
  let ilen = index_len slots in
  { capacity; size = 0; slots;
    keys = make slots 0;
    prev = make slots (-1);
    next = make slots (-1);
    index = make ilen (-1);
    mask = ilen - 1;
    head = -1; tail = -1; version = 0 }

let size t = t.size
let capacity t = t.capacity
let version t = t.version

(* The index position holding [k]'s slot, or the empty position where
   the probe for [k] stops. *)
let rec probe t k i =
  let s = get t.index i in
  if s < 0 || get t.keys s = k then i else probe t k ((i + 1) land t.mask)

let position t k = probe t k (hash k land t.mask)

let find t k = get t.index (position t k)

let mem t k = find t k >= 0

(* Backward-shift deletion: empty position [i], then move each later
   entry of its probe run whose home is not in (i, j] back into the
   hole, so every probe still meets its key before an empty position. *)
let rec shift t i j =
  let j = (j + 1) land t.mask in
  let s = get t.index j in
  if s < 0 then set t.index i (-1)
  else
    let home = hash (get t.keys s) land t.mask in
    let stays = if i <= j then i < home && home <= j else i < home || home <= j in
    if stays then shift t i j
    else begin
      set t.index i s;
      shift t j j
    end

let remove_key t k =
  let i = position t k in
  shift t i i

let insert_key t k s = set t.index (position t k) s

let unlink t s =
  let p = get t.prev s and n = get t.next s in
  if p >= 0 then set t.next p n else t.head <- n;
  if n >= 0 then set t.prev n p else t.tail <- p

let push_front t s =
  set t.prev s (-1);
  set t.next s t.head;
  if t.head >= 0 then set t.prev t.head s else t.tail <- s;
  t.head <- s

(* Doubles the slot arrays (up to [capacity]) and rebuilds the index
   at twice their length. *)
let grow t =
  let slots = min t.capacity (2 * t.slots) in
  t.keys <- extend t.keys slots 0;
  t.prev <- extend t.prev slots (-1);
  t.next <- extend t.next slots (-1);
  t.slots <- slots;
  let ilen = index_len slots in
  t.index <- make ilen (-1);
  t.mask <- ilen - 1;
  for s = 0 to t.size - 1 do
    insert_key t (get t.keys s) s
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
        if t.size = t.slots then grow t;
        let s = t.size in
        t.size <- s + 1;
        s
      end
      else begin
        let victim = t.tail in
        remove_key t (get t.keys victim);
        unlink t victim;
        victim
      end
    in
    set t.keys s k;
    insert_key t k s;
    push_front t s;
    t.version <- t.version + 1;
    false
  end

let clear t =
  Array.iter (fun pg -> Array.fill pg 0 (Array.length pg) (-1)) t.index;
  t.size <- 0;
  t.head <- -1;
  t.tail <- -1;
  t.version <- t.version + 1
