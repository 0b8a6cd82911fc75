(** ILP encoding of the mapping problem (§3.4).

    Variables:
    - x{_n,c} ∈ {0,1}: dataflow node n runs on placement class c (Π);
    - y{_s,m} ∈ {0,1}: state object s lives in memory region m, or in a
      stateful accelerator's SRAM (Γ);
    - z{_n,c,m} = x{_n,c} ∧ y{_s,m} for state-touching nodes, linearized,
      so node costs can depend on the placement of the state they touch.

    Constraints: each node mapped exactly once; each state placed exactly
    once; pipeline edges never decrease the hardware stage
    (Π[k] ≥ Π[t] along dataflow edges); region and accelerator-SRAM
    capacities (Θ's capacity side; queue latencies are constants the
    predictor adds).

    Objective: minimize expected per-packet cycles — node costs priced by
    {!Clara_dataflow.Cost} and weighted by guard-derived execution
    frequencies ({!Clara_dataflow.Graph.visits}), emulating what a good
    hand port would choose. *)

val packet_regions :
  Clara_lnic.Graph.t -> Clara_lnic.Unit_.t -> int Clara_dataflow.Cost.packet_regions
(** The regions holding packet data as seen from a unit: cluster memory
    while the packet fits the CTM threshold, external memory once it
    spills (§3.2); either falls back to the other, then to the first
    reachable region.
    @raise Invalid_argument when the unit reaches no memory. *)

val packet_region_for :
  Clara_lnic.Graph.t -> Clara_lnic.Unit_.t -> packet_bytes:float -> int
(** The one of {!packet_regions} a packet of [packet_bytes] uses. *)

val cost_ctx :
  Clara_lnic.Graph.t ->
  Clara_lnic.Unit_.t ->
  sizes:Clara_dataflow.Cost.sizes ->
  state_region:(string -> int) ->
  state_footprint:(string -> int) ->
  Clara_dataflow.Cost.ctx
(** The cost context for a unit, with the packet region chosen by
    {!packet_region_for}. *)

val map_nf :
  ?options:Mapping.options ->
  ?dump_lp:string ->
  Clara_lnic.Graph.t ->
  Clara_dataflow.Graph.t ->
  sizes:Clara_dataflow.Cost.sizes ->
  prob:(Clara_cir.Ir.guard -> float) ->
  (Mapping.t, string) result
(** [Error] explains infeasibility (a node no unit can run, a state no
    region can hold, or contradictory pipeline requirements).  [dump_lp]
    writes the encoded model in CPLEX LP format before solving, for
    inspection or cross-checking with an external solver. *)
