(** Minimal JSON emitter and parser, for machine-readable reports,
    sweep-spec files and the on-disk result cache. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float     (** NaN/infinities are emitted as [null]. *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Valid JSON; strings are escaped per RFC 8259.  [pretty] (default
    true) indents with two spaces. *)

val to_channel : ?pretty:bool -> out_channel -> t -> unit

exception Parse_error of string * int
(** Message and byte offset. *)

val parse_exn : string -> t
(** Parse one JSON value (with optional surrounding whitespace); raises
    [Parse_error].  Numbers without a fraction or exponent that fit in
    an OCaml [int] parse as [Int], all others as [Float]. *)

val parse : string -> (t, string) result
(** [parse_exn] with the error rendered as ["JSON parse error at byte
    %d: %s"]. *)

(** {2 Accessors} — shallow, total helpers for picking spec/cache
    fields apart. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the first binding of [k]; [None] on
    non-objects. *)

val to_int_opt : t -> int option
(** [Int], or [Float] with an integral value. *)

val to_float_opt : t -> float option
(** [Float], or [Int] widened. *)

val to_string_opt : t -> string option
val to_list_opt : t -> t list option
