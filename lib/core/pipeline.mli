(** Clara: performance clarity for SmartNIC offloading.

    The end-to-end pipeline of the paper (§2.3, Figure 2): an unported NF
    in the DSL is lowered to CIR, coarsened by pattern matching, turned
    into a dataflow graph, mapped onto a parameterized logical NIC by the
    ILP, and finally walked against a workload to predict latency —
    without the NF ever being ported.

    {[
      let lnic = Clara_lnic.Netronome.default in
      let a = Clara.analyze_for_profile lnic ~source ~profile |> Result.get_ok in
      let trace = Clara_workload.Trace.synthesize profile in
      let p = Clara.predict a trace in
      Format.printf "predicted mean: %.0f cycles@." p.mean_cycles
    ]} *)

type analysis = {
  lnic : Clara_lnic.Graph.t;
  df : Clara_dataflow.Graph.t;
  mapping : Clara_mapping.Mapping.t;
  pattern_report : Clara_cir.Patterns.report;
  options : Clara_mapping.Mapping.options;
      (** As actually used by mapping — including sharing verdicts the
          lint pass injected when the caller left them empty. *)
  lint : Clara_analysis.Suite.report;
      (** Static-analysis report over the coarsened CIR.  Diagnostics
          never fail [analyze_for_profile] (use [clara lint] for a
          gate); the sharing verdicts feed the encoder so racy state is
          priced as if properly synchronized. *)
  sizes : Clara_dataflow.Cost.sizes;
      (** The profile's mean sizes ({!sizes_of_profile}) the mapping was
          solved at.  Every aggregate estimate over this analysis
          (throughput, energy, paths, partial offload, interference)
          prices at them too. *)
  prob : Clara_cir.Ir.guard -> float;
      (** The profile's guard probabilities ({!prob_of_profile}),
          likewise shared by the mapping and the estimates. *)
}

val sizes_of_profile : Clara_workload.Profile.t -> Clara_dataflow.Cost.sizes
(** Mean payload, packet and header bytes of the profile's mix. *)

val prob_of_profile :
  Clara_workload.Profile.t -> Clara_cir.Ir.guard -> float
(** Guard probabilities implied by the profile: its TCP fraction (UDP
    is the rest; other protocol numbers get a tenth of the rest), its
    table-hit fraction (packets per flow, at least 0.5) and its SYN
    share; 0.5 for other TCP flags, and {!Clara_predict.Latency.guard_prior}
    for the guards no packet field decides. *)

val analyze_for_profile :
  ?options:Clara_mapping.Mapping.options ->
  Clara_lnic.Graph.t ->
  source:string ->
  profile:Clara_workload.Profile.t ->
  (analysis, string) result
(** Parse → typecheck → lower → coarsen → lint → dataflow → map, at the
    sizes and guard probabilities of a workload profile — the paper's
    workflow (§3.5).  Errors cover syntax, type and mapping
    infeasibility. *)

val predict :
  ?config:Clara_predict.Latency.config ->
  analysis ->
  Clara_workload.Trace.t ->
  Clara_predict.Latency.prediction

val predict_profile :
  ?config:Clara_predict.Latency.config ->
  ?seed:int64 ->
  analysis ->
  Clara_workload.Profile.t ->
  Clara_predict.Latency.prediction
(** Synthesizes a trace from the profile, then predicts. *)

val device_placement_of_state :
  analysis -> string -> Clara_nicsim.Device.placement option
(** Translate the mapping's Γ decision for a state object into the
    simulator's placement vocabulary — used when a port "follows Clara's
    hints", the workflow the paper proposes (§6: offloading hints). *)
