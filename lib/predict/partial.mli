(** Partial offloading (§6 future work).

    Split the NF into a SmartNIC-resident prefix and a host-resident
    suffix.  Candidate cuts are prefixes of the dataflow DAG's
    topological order (control must cross PCIe exactly once, forward);
    a cut is feasible only when no state object is touched on both sides
    (no cache coherence across PCIe, as §6 notes).  Each side is priced
    with its own target model — the NIC side by the existing mapping, the
    host side on {!Clara_lnic.Host} — plus the PCIe round-trip for any
    packet that continues to the host.  Nodes are weighted by their
    expected visits, and the egress leg by the emitted share.  The NIC
    receives every packet; the side that runs the tail transmits.  Both
    wire legs are priced as the predictor prices them,
    {!Pricer.rx_cycles} and {!Pricer.tx_cycles} (DMA plus the hub
    constant), at the receiving or transmitting target's clock. *)

type side = On_nic | On_host

type split = {
  cut : int;                 (** Nodes before this topo position run on the NIC. *)
  assignment : (int * side) list;  (** Node id → side. *)
  nic_ns : float;
  host_ns : float;
  pcie_ns : float;           (** 0 for the all-NIC split. *)
  total_ns : float;
}

val enumerate_splits :
  sizes:Clara_dataflow.Cost.sizes ->
  prob:(Clara_cir.Ir.guard -> float) ->
  Clara_lnic.Graph.t ->
  Clara_dataflow.Graph.t ->
  Clara_mapping.Mapping.t ->
  split list
(** All feasible splits including all-NIC (cut = #nodes) and all-host
    (cut = 0), cheapest total first.  The all-host split is always
    feasible, so the list is never empty. *)

val best_split :
  sizes:Clara_dataflow.Cost.sizes ->
  prob:(Clara_cir.Ir.guard -> float) ->
  Clara_lnic.Graph.t ->
  Clara_dataflow.Graph.t ->
  Clara_mapping.Mapping.t ->
  split
(** The head of {!enumerate_splits}; never raises. *)

val describe : Clara_dataflow.Graph.t -> split -> string
val pp : Format.formatter -> split -> unit
