(** Symbolic path enumeration (§3.5's alternative to trace simulation).

    Instead of walking concrete packets, enumerate every feasible path
    through the NF's CFG, recording the guard decisions that select it.
    Each path becomes a {e packet-type profile}: "TCP SYN packets take
    this path and cost this much; established-flow packets hit the table
    and cost less" — exactly the § 3.5 example output. *)

type decision = { guard : Clara_cir.Ir.guard; taken : bool }

type path = {
  decisions : decision list;
  cost_cycles : float;       (** At the evaluation sizes, wire included. *)
  emits : bool;
  description : string;      (** Human-readable packet-type summary. *)
}

val enumerate :
  ?max_paths:int ->
  sizes:Clara_dataflow.Cost.sizes ->
  Clara_lnic.Graph.t ->
  Clara_dataflow.Graph.t ->
  Clara_mapping.Mapping.t ->
  path list
(** Paths in decreasing cost order.  Each path is one run of
    {!Clara_dataflow.Graph.walk}, the walk {!Latency} takes per packet,
    so a packet whose guards match a path's decisions costs that path.
    Runs visit the paths depth-first; [max_paths] (default 64) bounds
    the enumeration; guards encountered twice on one path resolve
    consistently.  Nodes are priced at [sizes]; a path's cost does not
    depend on guard probabilities. *)

val pp_path : Format.formatter -> path -> unit
