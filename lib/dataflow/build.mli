(** Construction of dataflow graphs from CIR (§3.3).

    Each CIR block is split so every virtual call becomes its own node
    (the unit an accelerator can absorb); the surrounding straightline
    instructions form compute nodes.  Each block's walk step is resolved
    once ({!Graph.step}); the back edges it names are dropped and the
    loop trip count is recorded on each body node instead, keeping the
    graph a DAG for the mapping ILP.  The blocks' one topological order
    ({!Graph.t.order}) is computed here too. *)

val of_ir : Clara_cir.Ir.program -> Graph.t
(** @raise Graph.Walk_limit if the CFG cycles outside a structured
    loop. *)

val of_source : string -> Graph.t
(** Parse, typecheck, lower, coarsen ({!Clara_cir.Patterns.run}), build. *)
