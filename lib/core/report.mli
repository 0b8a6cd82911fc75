(** Human-readable performance profiles — Clara's output artifact
    (Figure 2d, §3.5's example: "TCP SYN packets experience higher
    latency, but the following packets hit the flow cache"). *)

type t = {
  nf_name : string;
  nic_name : string;
  mapping_lines : (string * string) list;
      (** Dataflow node / state object → hardware resource. *)
  paths : Clara_predict.Symexec.path list;
      (** Per-packet-type latency profiles, most expensive first. *)
  prediction : Clara_predict.Latency.prediction option;
      (** Workload-level numbers when a trace was supplied. *)
  throughput : Clara_predict.Throughput.t;
  energy : Clara_predict.Energy.t option;
      (** Populated when a rate was supplied. *)
  splits : (Clara_predict.Partial.split * string) list;
      (** Partial-offloading cuts, cheapest first, at most 8, each with
          its {!Clara_predict.Partial.describe} ([[]] on the host target). *)
}

val build :
  ?trace:Clara_workload.Trace.t ->
  ?rate_pps:float ->
  Pipeline.analysis ->
  t

val render : Format.formatter -> t -> unit
(** Multi-section textual report. *)

val to_string : t -> string

val to_json : t -> Clara_util.Json.t
(** Machine-readable form of the same report, for tooling
    ([clara analyze --json]). *)
