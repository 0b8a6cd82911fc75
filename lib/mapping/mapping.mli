(** Mapping results: where each dataflow node runs and each state object
    lives (§3.4's Π and Γ decisions, decoded from the ILP solution). *)

type placement =
  | In_memory of int  (** Memory region id of the LNIC. *)
  | In_accel of int   (** Unit id of a stateful accelerator (flow cache). *)

type t = {
  node_unit : int array;  (** Node id → LNIC unit id (class representative). *)
  state_place : (string * placement) list;
  objective_cycles : float;
      (** Expected per-packet on-NIC compute cycles under the workload
          weights (hub/wire constants excluded; the predictor adds them). *)
  ilp_nodes : int;        (** Branch-and-bound nodes explored (0 = greedy). *)
  ilp_vars : int;
  ilp_gap : float option;
      (** [None] when the mapping is exact (or greedy).  [Some g] when
          the branch-and-bound node budget ran out: the mapping is the
          best incumbent found and its objective is within [g] cycles of
          the true optimum — degraded but usable. *)
}

type options = {
  disallowed_accels : Clara_lnic.Unit_.accel_kind list;
      (** Porting-strategy customization: e.g. forbid the flow cache to
          model the software match/action variant (Figures 1 & 3a). *)
  pin_state : (string * Clara_lnic.Memory.level) list;
      (** Force a state object to a memory level (another porting-strategy
          knob; also excludes it from accelerator SRAM). *)
  node_limit : int;       (** Branch-and-bound node budget. *)
  sharing : (string * Clara_analysis.Sharing.verdict) list;
      (** Per-state sharing verdicts from the analysis suite (empty =
          trust the program as written).  States judged [Racy] are
          hardened during encoding: their raw loads/stores are priced
          as atomics — the cost the program pays once the race is
          actually fixed — and accelerator SRAM placement is refused. *)
}

val default_options : options

val placement_of_state : t -> string -> placement option
val pp : Clara_lnic.Graph.t -> Format.formatter -> t -> unit
