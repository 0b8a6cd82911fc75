(** Predict-vs-simulate calibration: how much should the model be
    trusted, per NF, per NIC, per latency component?

    A calibration run executes the static predictor and the event
    simulator on the same NF × NIC × workload, aligns their latency
    decompositions on a canonical five-component basis
    (queue / compute / accel-wait / mem / wire) and appends one
    {!record} per case to an on-disk JSONL {e ledger}.  Because both
    decompositions tile their own totals exactly (the simulator's
    attribution spans tile [arrival, retire]; the predictor's components
    sum to its prediction), the per-component signed errors sum to the
    total mean gap cycle-for-cycle — so "the predictor is 9% optimistic
    here, and 7 of those 9 points are missing queueing" is a statement
    the ledger can back.

    Component alignment: the predictor models no queueing and no
    accelerator contention, so its [queue] and [accel_wait] are zero and
    its accelerator {e service} time folds into [compute] — mirroring
    the simulator's attribution, where [Accel_use] also counts as
    compute and [Accel_wait] is pure serialization.

    [clara calibrate] appends records; [clara report] renders per-NF /
    per-NIC error tables, worst-component attribution, and drift
    detection against prior entries for the same (NF, NIC) group. *)

type components = {
  c_queue : float;
  c_compute : float;     (** Core compute + accelerator service. *)
  c_accel_wait : float;
  c_mem : float;
  c_wire : float;
}

val csum : components -> float
val zero_components : components

type provenance = {
  timestamp : string;      (** UTC, ISO-8601. *)
  git_commit : string;     (** ["unknown"] outside a git checkout. *)
  ocaml_version : string;
  host : string;
  options_hash : string;   (** Hash of the case parameters. *)
}

type record = {
  nf : string;
  nic : string;
  workload : string;       (** Compact workload descriptor. *)
  seed : int;
  packets : int;           (** Simulated (non-dropped) packets attributed. *)
  pred_mean : float;
  pred_p50 : float;
  pred_p99 : float;
  sim_mean : float;
  sim_p50 : float;
  sim_p99 : float;
  gap_mean_pct : float;    (** 100·(pred−sim)/sim. *)
  gap_p50_pct : float;
  gap_p99_pct : float;
  pred_comp : components;  (** Sums to [pred_mean]. *)
  sim_comp : components;   (** Sums to [sim_mean]. *)
  err_comp : components;   (** pred − sim; sums to [pred_mean − sim_mean]. *)
  prov : provenance;
}

val record_to_json : record -> Clara_util.Json.t
val record_of_json : Clara_util.Json.t -> (record, string) result

val current_provenance : options_hash:string -> provenance
(** Best-effort environment capture; never fails. *)

(** {2 Running a case} *)

type case = {
  case_nf : string;    (** Corpus NF name or source path, resolved by
                           {!Clara_nfs.Corpus.resolve}. *)
  case_nic : string;
  case_packets : int;
  case_payload : int;
  case_flows : int;
  case_rate : float;
  case_tcp : float;
  case_seed : int;
}

val default_case : nf:string -> nic:string -> case
(** 4000 packets, 300-byte payload, 2000 flows, 60 kpps, 0.8 TCP,
    seed 42. *)

val run_case : case -> (record, string) result
(** Analyze + predict + simulate-with-tracing one case.  Errors cover
    unknown NFs/NICs and analysis/mapping failures (e.g. an NF the
    target cannot host) — callers typically skip those cases.  A run
    whose trace ring dropped events, or whose attribution covers other
    than every simulated packet, is an error too, never a record of a
    short sample. *)

(** {2 The ledger} *)

val append : path:string -> record -> unit
(** Append one compact-JSON line; creates the file if needed. *)

val load : path:string -> (record list, string) result
(** All records in append order.  A missing file is an error; a
    malformed line is an error naming the line. *)

(** {2 Reporting} *)

type drift = {
  dr_nf : string;
  dr_nic : string;
  dr_metric : string;     (** ["mean"] or ["p50"]. *)
  dr_prev_pct : float;
  dr_latest_pct : float;
}

type group = {
  g_nf : string;
  g_nic : string;
  g_entries : int;
  g_latest : record;
  g_worst : string;       (** Component with the largest |error| in the
                              latest record. *)
}

type report = {
  groups : group list;    (** Sorted by (nf, nic). *)
  drifts : drift list;
  threshold_pp : float;
}

val build_report : ?drift_threshold:float -> record list -> report
(** Groups records by (nf, nic) in append order.  For a group with ≥ 2
    entries, the latest drifts on a metric when its absolute gap
    exceeds the previous entry's by more than [drift_threshold]
    percentage points (default 5.0). *)

val report_to_json : report -> Clara_util.Json.t
val pp_report : Format.formatter -> report -> unit
