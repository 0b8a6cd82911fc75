(* xoshiro256** 1.0, seeded via splitmix64.  Reference: Blackman &
   Vigna, "Scrambled linear pseudorandom number generators". *)

(* The four state words live unboxed in 32 bytes, read and written
   with the int64 byte accessors: a draw keeps them in registers and
   allocates nothing, where [mutable int64] record fields would box on
   every store. *)
type t = Bytes.t

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3;
  t

let create ~seed =
  let st = ref seed in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  (* All-zero state is invalid for xoshiro; splitmix64 of any seed cannot
     produce four zeros, but guard anyway. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then of_words 1L 2L 3L 4L
  else of_words s0 s1 s2 s3

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Inlined into every draw below, so its int64 result stays unboxed
   there. *)
let[@inline] next t =
  let open Int64 in
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 and s3 = Bytes.get_int64_le t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 (logxor s2 tmp);
  Bytes.set_int64_le t 24 (rotl s3 45);
  result

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free for our purposes: mask to 62 bits (non-negative) and
     take the remainder; modulo bias is negligible for bounds << 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let[@inline] float t =
  (* 53 high bits -> [0, 1). *)
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v *. (1. /. 9007199254740992.)

let bool t p = float t < p
