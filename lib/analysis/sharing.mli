(** Shared-state concurrency analysis (pass 1).

    SmartNIC datapaths run the same NF on many threads/islands at once,
    so every state object is implicitly shared.  This pass classifies
    how each state object is accessed across the whole program and
    derives a {e sharing verdict} that [lib/mapping] consumes when
    pricing and placing state:

    - [Read_only]: loads / read-only vcalls only — replicate freely.
    - [Sync_vcall]: mutated, but only through framework vcalls (table
      engines, counters) whose engines serialize updates.
    - [Atomic]: raw mutation, but every raw write is an [Atomic_op].
    - [Racy]: raw [Store] (worse: a [Load]+[Store] read-modify-write)
      with no synchronization — concurrent threads lose updates.

    Diagnostics:
    - CLARA001 (error): unsynchronized read-modify-write on a state
      object, naming the load and store blocks.
    - CLARA002 (warn): blind unsynchronized [Store] (no load observed —
      last-writer-wins, racy but not a lost-update RMW).
    - CLARA003 (info): state mutated with atomics; placement must be
      atomics-capable. *)

type verdict = Read_only | Sync_vcall | Atomic | Racy

val verdict_name : verdict -> string
(** ["read_only"], ["sync_vcall"], ["atomic"], ["racy"] — stable, used
    in JSON reports and explore cache keys. *)

val analyze :
  Clara_cir.Ir.program -> (string * verdict) list * Diag.t list
(** Verdicts for every declared state object (in declaration order),
    plus the diagnostics.  State names referenced but never declared
    are ignored here — the cost-sanity pass reports them (CLARA302). *)

val stateless : Clara_cir.Ir.program -> bool
(** True when every state object is [Read_only] (or there is none):
    per-packet cost depends only on the packet, so the simulator's
    retired steady-state fast path ([Engine.Auto]) is safe to enable.
    Its one remaining caller is the benchmark's [Auto] cell
    ([perfbench/]), which replays only the cells this accepts. *)
