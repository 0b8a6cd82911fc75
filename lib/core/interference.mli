(** Co-resident NF interference (§3.5), generalized to N tenants.

    The paper's starting point: slice the LNIC so each NF sees its
    share of the NIC, then account for footprints the co-residents
    leave in shared resources.  Two cross-terms sit on top of the
    sliced prediction:
    - {e cache contention}: each NF's effective EMEM cache shrinks by
      the summed state footprint of its co-residents (misses rise);
    - {e accelerator head-of-line blocking}: shared accelerators serve
      every tenant; each NF's accelerator operations are inflated by
      the aggregate utilization the co-residents induce, weighted by
      each tenant's own traffic rate. *)

type report = {
  solo_cycles : float;     (** NF alone on the full NIC. *)
  sliced_cycles : float;   (** NF alone on its weight-proportional slice. *)
  contended_cycles : float;  (** Slice + cross-terms. *)
  slowdown : float;        (** contended / solo. *)
  accel_utilization : float;
      (** Accelerator utilization this tenant itself induces on its
          slice ([rate_pps] x accelerator cycles/packet / core Hz). *)
  saturated : bool;
      (** The tenant mix's aggregate accelerator utilization (self
          included) reaches 1: the queueing term is capped and
          [contended_cycles] is a lower bound. *)
}

val shrink_emem_cache : Clara_lnic.Graph.t -> by_bytes:int -> Clara_lnic.Graph.t
(** The graph with every external region's cache shrunk by [by_bytes]
    (floored at 64 KiB): what a tenant sees after its co-residents'
    state has taken its share. *)

val analyze_n :
  ?options:Clara_mapping.Mapping.options ->
  ?weights:int array ->
  Clara_lnic.Graph.t ->
  sources:string array ->
  profiles:Clara_workload.Profile.t array ->
  (report array, string) result
(** Per-tenant interference reports for N NFs sharing the NIC.  Tenant
    [i] runs on a [weights.(i)] / (sum weights) slice (default: equal
    weights), sees the cache-shrink from every co-resident's state, and
    queues behind their aggregate accelerator utilization — computed
    against the slice each tenant actually runs on, with each tenant's
    own [profile.rate_pps] as the traffic weighting.  Reports are in
    input order.  Errors on tenant-count mismatches, non-positive
    weights, or any per-tenant pipeline failure. *)

val accel_cycles_per_packet : Pipeline.analysis -> float
(** Cycles per packet the analysis's mapping spends on genuine
    accelerator units at its own sizes and guard probabilities
    (classified by the LNIC unit class — general-core rows never count,
    even when the slice leaves a single thread). *)
