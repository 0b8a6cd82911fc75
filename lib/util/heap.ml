(* Binary min-heap of ints.  Used by the nicsim engine to retire
   in-flight packets by completion time (multi-threaded completions are
   not monotone, so a FIFO overstates queue depth) and to pick the
   earliest-free thread.

   Slots [0, Array.length data) live in [data], a flat array sized at
   [create] (a capacity over one page is one block of that size) and
   doubled while it stays within one page ([page_len] ints, a block the
   minor heap takes).  A heap that outgrows that
   keeps [data] and appends full pages to [pages]: slot [i] beyond
   [data] is at [pages.(j lsr page_bits).(j land page_mask)] with
   [j = i - Array.length data].  So growth never allocates a
   major-heap block, and a run's heap dies young with the run.  Every
   operation on a heap that fits [data] (a thread pool, which never
   grows, and every in-flight window but a saturated queue's) runs the
   flat loops; only a heap spilled into pages pays the paged access.
   The paged loops alone would serve every heap, but their slot branch
   costs a pool of 8 and a window of 16 about 30% more per operation
   (release build, 4M operations). *)

let page_bits = 8
let page_len = 1 lsl page_bits
let page_mask = page_len - 1

type t = { mutable data : int array; mutable pages : int array array; mutable size : int }

let create ?(capacity = 16) () = { data = Array.make (max 1 capacity) 0; pages = [||]; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

(* ---- Flat: every slot in [d]. ---- *)

let rec sift_up_flat (d : int array) i (x : int) =
  if i = 0 then d.(0) <- x
  else
    let parent = (i - 1) / 2 in
    let p = d.(parent) in
    if x < p then begin
      d.(i) <- p;
      sift_up_flat d parent x
    end
    else d.(i) <- x

(* Sift [x] down from slot [i]: children move up into the hole until
   [x] fits, so each level costs one store rather than a swap. *)
let sift_down_flat (d : int array) n i (x : int) =
  let i = ref i and stop = ref false in
  while not !stop do
    let l = (2 * !i) + 1 in
    if l >= n then stop := true
    else begin
      let c = if l + 1 < n && d.(l + 1) < d.(l) then l + 1 else l in
      if d.(c) < x then begin
        d.(!i) <- d.(c);
        i := c
      end
      else stop := true
    end
  done;
  d.(!i) <- x

(* ---- Paged: the same loops through [get] and [set], which take
   [data], its length and [pages] hoisted out of the loop. ---- *)

let[@inline] get (d : int array) k pages i =
  if i < k then d.(i)
  else
    let j = i - k in
    pages.(j lsr page_bits).(j land page_mask)

let[@inline] set (d : int array) k pages i (x : int) =
  if i < k then d.(i) <- x
  else
    let j = i - k in
    pages.(j lsr page_bits).(j land page_mask) <- x

let sift_up_paged h i (x : int) =
  let d = h.data and pages = h.pages in
  let k = Array.length d in
  let i = ref i and stop = ref false in
  while not !stop do
    if !i = 0 then stop := true
    else begin
      let parent = (!i - 1) / 2 in
      let p = get d k pages parent in
      if x < p then begin
        set d k pages !i p;
        i := parent
      end
      else stop := true
    end
  done;
  set d k pages !i x

let sift_down_paged h n i (x : int) =
  let d = h.data and pages = h.pages in
  let k = Array.length d in
  let i = ref i and stop = ref false in
  while not !stop do
    let l = (2 * !i) + 1 in
    if l >= n then stop := true
    else begin
      let c = if l + 1 < n && get d k pages (l + 1) < get d k pages l then l + 1 else l in
      let v = get d k pages c in
      if v < x then begin
        set d k pages !i v;
        i := c
      end
      else stop := true
    end
  done;
  set d k pages !i x

let fits h = h.size <= Array.length h.data

let sift_down h i x =
  if fits h then sift_down_flat h.data h.size i x else sift_down_paged h h.size i x

(* One more slot: [data] doubles while it stays within a page, then
   each growth appends a full page. *)
let grow h =
  let k = Array.length h.data in
  if k < page_len then begin
    let d = Array.make (min page_len (2 * k)) 0 in
    Array.blit h.data 0 d 0 h.size;
    h.data <- d
  end
  else h.pages <- Array.append h.pages [| Array.make page_len 0 |]

let push h x =
  if h.size = Array.length h.data + (Array.length h.pages * page_len) then grow h;
  h.size <- h.size + 1;
  if fits h then sift_up_flat h.data (h.size - 1) x else sift_up_paged h (h.size - 1) x

let min_elt h =
  if h.size = 0 then invalid_arg "Heap.min_elt: empty";
  h.data.(0)

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty";
  let top = h.data.(0) in
  let last = get h.data (Array.length h.data) h.pages (h.size - 1) in
  h.size <- h.size - 1;
  if h.size > 0 then sift_down h 0 last;
  top

let replace_min h x =
  if h.size = 0 then invalid_arg "Heap.replace_min: empty";
  sift_down h 0 x

let clear h = h.size <- 0
