(* Array-backed binary min-heap of ints.  Used by the nicsim engine to
   retire in-flight packets by completion time: multi-threaded
   completions are not monotone, so a FIFO overstates queue depth. *)

type t = { mutable data : int array; mutable size : int }

let create ?(capacity = 16) () = { data = Array.make (max 1 capacity) 0; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.data.(i) < h.data.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

(* Sift [x] down from slot [i]: children move up into the hole until
   [x] fits, so each level costs one store rather than a swap. *)
let sift_down h i x =
  let d = h.data and n = h.size in
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

let push h x =
  if h.size = Array.length h.data then begin
    let grown = Array.make (2 * h.size) 0 in
    Array.blit h.data 0 grown 0 h.size;
    h.data <- grown
  end;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let min_elt h =
  if h.size = 0 then invalid_arg "Heap.min_elt: empty";
  h.data.(0)

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty";
  let top = h.data.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then sift_down h 0 h.data.(h.size);
  top

let replace_min h x =
  if h.size = 0 then invalid_arg "Heap.replace_min: empty";
  sift_down h 0 x

let clear h = h.size <- 0
