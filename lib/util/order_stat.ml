(* Two monomorphic copies of one quicksort, so that every comparison is
   a native int or float compare rather than a call to [compare].
   Median-of-three pivot and a Hoare partition that stops on equal
   keys, so runs of duplicates split evenly; the smaller side recurses
   and the larger loops, so the stack stays O(log n).  Ranges below
   [cutoff] elements finish with insertion sort. *)

let cutoff = 16

let rank_index ~n p =
  Int.max 0 (Int.min (n - 1) (int_of_float (Float.ceil (float_of_int n *. p)) - 1))

let[@inline] swap_i (a : int array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let insertion_ints (a : int array) lo hi =
  for i = lo + 1 to hi do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let rec quick_ints (a : int array) lo hi =
  if hi - lo < cutoff then insertion_ints a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if a.(mid) < a.(lo) then swap_i a mid lo;
    if a.(hi) < a.(lo) then swap_i a hi lo;
    if a.(hi) < a.(mid) then swap_i a hi mid;
    let p = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < p do incr i done;
      while a.(!j) > p do decr j done;
      if !i <= !j then begin
        swap_i a !i !j;
        incr i;
        decr j
      end
    done;
    if !j - lo < hi - !i then begin
      quick_ints a lo !j;
      quick_ints a !i hi
    end
    else begin
      quick_ints a !i hi;
      quick_ints a lo !j
    end
  end

let sort_ints a n =
  if n < 0 || n > Array.length a then invalid_arg "Order_stat.sort_ints";
  quick_ints a 0 (n - 1)

(* [compare]'s order on floats: NaN equals itself and sorts first. *)
let[@inline] lt (x : float) y = x < y || (x <> x && y = y)

let[@inline] swap_f (a : float array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let insertion_floats (a : float array) lo hi =
  for i = lo + 1 to hi do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && lt x a.(!j) do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let rec quick_floats (a : float array) lo hi =
  if hi - lo < cutoff then insertion_floats a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if lt a.(mid) a.(lo) then swap_f a mid lo;
    if lt a.(hi) a.(lo) then swap_f a hi lo;
    if lt a.(hi) a.(mid) then swap_f a hi mid;
    let p = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while lt a.(!i) p do incr i done;
      while lt p a.(!j) do decr j done;
      if !i <= !j then begin
        swap_f a !i !j;
        incr i;
        decr j
      end
    done;
    if !j - lo < hi - !i then begin
      quick_floats a lo !j;
      quick_floats a !i hi
    end
    else begin
      quick_floats a !i hi;
      quick_floats a lo !j
    end
  end

let sort_floats a n =
  if n < 0 || n > Array.length a then invalid_arg "Order_stat.sort_floats";
  quick_floats a 0 (n - 1)
