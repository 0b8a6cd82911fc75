(** Memory regions of the logical NIC (§3.1–3.2).

    Regions differ in size and access latency; latency additionally varies
    with where the access is issued from (NUMA weights live on
    {!Link.t}).  A region may front a small cache (the Netronome EMEM has
    a 3 MB cache before its 8 GB DRAM). *)

type level =
  | Local     (** Per-core registers / local memory. *)
  | Cluster   (** Island-shared (Netronome CTM). *)
  | Internal  (** On-chip SRAM (IMEM). *)
  | External  (** Off-chip DRAM (EMEM). *)

type cache = {
  cache_bytes : int;
  hit_cycles : int;  (** Access latency on hit, replacing the miss cost. *)
}

type t = {
  id : int;
  name : string;
  level : level;
  size_bytes : int;
  read_cycles : int;   (** Baseline access latency from an attached unit. *)
  write_cycles : int;
  atomic_cycles : int; (** Atomic read-modify-write latency. *)
  cache : cache option;
  island : int option; (** Populated for [Cluster]-level regions. *)
}

val cycles : t -> [ `Read | `Write | `Atomic ] -> int
(** Flat (uncached) access latency of one operation of this mode. *)

val level_rank : level -> int
(** 0 = fastest/closest.  Used for spill ordering. *)

val level_name : level -> string
val pp : Format.formatter -> t -> unit
