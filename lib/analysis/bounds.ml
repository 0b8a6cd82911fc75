(* Static per-packet-type latency bounds: a forward abstract
   interpretation of the CIR CFG over the {!Interval} domain.

   Two layers:

   1. An execution-count analysis, one fold over the blocks in the
      dataflow graph's block order: how many times can each block
      execute for one packet of a given type?  Loop headers multiply
      their body's count by the loop-trip range (inferred from guards
      and payload-length ranges); branch arms a type's facts kill stay
      unreached; undetermined arms keep their upper count but drop to a
      zero lower, and so does a loop's exit when the type's facts let
      its body return.
      Back edges are cut: the multiplication already accounts for
      iteration.

   2. A cost composition: each block's count interval multiplies its
      nodes' {!Cost_range} envelopes (trip-free — the
      counts carry loop multiplicity), summed into per-axis intervals
      on the [queue; compute; accel_wait; mem; wire] basis the
      calibration ledger uses.  The service axes (compute/mem/accel/
      wire) are pure per-packet work; queue and accel_wait are
      contention allowances: zero at the fast end, a bounded-queue /
      all-threads-in-flight worst case at the slow end.

   Soundness target: the simulator's per-type mean latency must lie
   inside [total.lo, total.hi] (the bench `bounds` section enforces
   this for every example NF on every target). *)

module Ir = Clara_cir.Ir
module D = Clara_dataflow
module Cr = Cost_range
module L = Clara_lnic
module I = Interval

(* ---- size envelopes ------------------------------------------------ *)

(* Workload-independent packet envelope: anything from an empty-payload
   minimal header to an MTU-sized frame. *)
let mtu_payload = 1500.

let header_range_of_type ptype =
  let module P = Clara_workload.Packet in
  let bytes p = float_of_int (P.proto_header_bytes p) in
  let tcp = bytes P.Tcp and other = bytes (P.Other 0) in
  match ptype with
  | "tcp" | "tcp-syn" -> I.const tcp
  | "udp" -> I.const (bytes P.Udp)
  | "other" -> I.const other
  | _ -> I.make other tcp

let sizes_for (p : Ir.program) ~ptype ~payload_max =
  let payload = I.make 0. payload_max in
  let header = header_range_of_type ptype in
  {
    Cr.payload_bytes = payload;
    packet_bytes = I.add payload header;
    header_bytes = header;
    state_entries =
      (fun s ->
        match Ir.state_obj_opt p s with
        | Some o -> I.const (float_of_int o.Ir.st_entries)
        | None -> I.const 0.);
    opaque_trip = I.make 1. Float.infinity;
  }

(* ---- packet types -------------------------------------------------- *)

(* Facts each traffic class pins down; "tcp" leaves the SYN flag free,
   so its interval also covers the SYN sub-population (the simulator's
   tcp mean includes SYNs). *)
let packet_types : (string * Paths.fact list) list =
  [
    ("all", []);
    ("tcp", [ (Ir.G_proto 6, true) ]);
    ("tcp-syn", [ (Ir.G_proto 6, true); (Ir.G_flag 0x2, true) ]);
    ("udp", [ (Ir.G_proto 17, true) ]);
    ("other", [ (Ir.G_proto 6, false); (Ir.G_proto 17, false) ]);
  ]

(* ---- execution-count analysis -------------------------------------- *)

(* Whether a packet satisfying [facts] can return inside the loop at
   [header]: some [Stop] step is reachable from [body] along the steps,
   without leaving the body, through the branch arms the facts leave
   open.  A back step continues at its loop's exit, which ends the
   search for the loop's own. *)
let body_can_return (df : D.Graph.t) ~facts ~header ~body ~exit =
  let seen = Array.make (Array.length df.D.Graph.steps) false in
  seen.(header) <- true;
  seen.(exit) <- true;
  let rec go b =
    (not seen.(b))
    && begin
         seen.(b) <- true;
         match df.D.Graph.steps.(b) with
         | D.Graph.Stop -> true
         | D.Graph.Next d | D.Graph.Back { exit = d; _ } -> go d
         | D.Graph.Branch { guard; then_; else_ } ->
             let open_arm d pol = Paths.assuming facts guard pol <> None && go d in
             open_arm then_ true || open_arm else_ false
       end
  in
  go body

(* Per-block execution-count intervals for packets satisfying [facts],
   one fold in the block order.  Entry executes once; a Loop header's
   body edge multiplies by the trip range, and its exit edge may be
   skipped when the facts let the body return; branch arms the facts
   contradict stay bottom, arms the facts leave open keep their ceiling
   but may be skipped.  The back edges the walk's steps name are cut. *)
let exec_counts (df : D.Graph.t) ~sizes ~facts =
  let p = df.D.Graph.cir in
  let counts = Array.make (Array.length p.Ir.blocks) I.bottom in
  counts.(p.Ir.entry) <- I.const 1.;
  let give d x = counts.(d) <- I.join counts.(d) x in
  let skippable x = I.make 0. (I.hi x) in
  Array.iter
    (fun b ->
      let x = counts.(b) in
      if not (I.is_bottom x) then
        match (df.D.Graph.steps.(b), (Ir.block p b).Ir.term) with
        | D.Graph.Back _, _ -> ()
        | _, Ir.Cond { guard; then_; else_ } when then_ <> else_ ->
            let arm d pol =
              if Paths.assuming facts guard pol = None then ()
              else if Paths.assuming facts guard (not pol) = None then give d x
              else give d (skippable x)
            in
            arm then_ true;
            arm else_ false
        | _, Ir.Loop { body; exit; trip } ->
            give body (I.mul x (Cr.trip sizes trip));
            give exit
              (if body_can_return df ~facts ~header:b ~body ~exit then skippable x else x)
        | _, term -> List.iter (fun d -> give d x) (Ir.successors term))
    df.D.Graph.order;
  counts

(* A loop header executes once more than its body iterates (the guard
   re-evaluation that exits), and the count analysis deliberately cuts
   the re-entry edge — so header blocks get an extra (trip + 1) factor
   in the cost sum. *)
let header_multiplier sizes (b : Ir.block) =
  match b.Ir.term with
  | Ir.Loop { trip; _ } -> I.add (Cr.trip sizes trip) (I.const 1.)
  | _ -> I.const 1.

(* ---- results ------------------------------------------------------- *)

type axes = {
  a_queue : I.t;
  a_compute : I.t;  (* general-core service + accelerator service *)
  a_accel_wait : I.t;
  a_mem : I.t;
  a_wire : I.t;
}

type type_bounds = {
  tb_type : string;
  tb_axes : axes;
  tb_service : I.t;  (* compute + mem + wire: per-packet work, no contention *)
  tb_total : I.t;    (* service + queue and accel-wait allowances *)
}

type t = {
  bt_prog : string;
  bt_target : string;
  bt_freq_mhz : int;
  bt_per_type : type_bounds list;
  bt_unbounded_loops : int list;  (* headers with no derivable trip bound *)
}

let find t ptype =
  List.find_opt (fun b -> b.tb_type = ptype) t.bt_per_type

(* Loop headers in the block order whose trip range has no finite
   ceiling, in block id order. *)
let unbounded_loops ?(payload_max = mtu_payload) (df : D.Graph.t) =
  let p = df.D.Graph.cir in
  let sizes = sizes_for p ~ptype:"all" ~payload_max in
  List.sort compare (Array.to_list df.D.Graph.order)
  |> List.filter (fun bid ->
         match (Ir.block p bid).Ir.term with
         | Ir.Loop { trip; _ } -> not (Float.is_finite (I.hi (Cr.trip sizes trip)))
         | _ -> false)

(* ---- the analysis -------------------------------------------------- *)

let analyze_graph ?(payload_max = mtu_payload) ~(lnic : L.Graph.t) (df : D.Graph.t) =
  let p = df.D.Graph.cir in
  let footprint s = Option.fold ~none:0 ~some:Ir.state_bytes (Ir.state_obj_opt p s) in
  let shared_regions =
    Array.to_list lnic.L.Graph.memories
    |> List.filter (fun (m : L.Memory.t) -> m.L.Memory.level <> L.Memory.Local)
  in
  let state_regions s =
    let fits =
      List.filter
        (fun (m : L.Memory.t) -> footprint s <= m.L.Memory.size_bytes)
        shared_regions
    in
    List.map
      (fun (m : L.Memory.t) -> m.L.Memory.id)
      (if fits = [] then shared_regions else fits)
  in
  let packet_regions =
    List.filter
      (fun (m : L.Memory.t) ->
        match m.L.Memory.level with
        | L.Memory.Cluster | L.Memory.External -> true
        | _ -> false)
      shared_regions
    |> List.map (fun (m : L.Memory.t) -> m.L.Memory.id)
  in
  let units =
    L.Graph.placement_classes lnic
    |> List.map (fun (c : L.Graph.placement_class) -> c.L.Graph.rep)
  in
  let threads = max 1 (L.Graph.total_threads lnic) in
  let queue_cap =
    Option.fold ~none:0
      ~some:(fun (h : L.Hub.t) -> h.L.Hub.queue_capacity)
      (L.Graph.hub lnic `Ingress)
  in
  let per_type =
    List.map
      (fun (ptype, facts) ->
        let sizes = sizes_for p ~ptype ~payload_max in
        let ctx =
          Cr.ctx lnic ~units ~state_regions
            ~packet_regions:
              (if packet_regions = [] then
                 List.map (fun (m : L.Memory.t) -> m.L.Memory.id) shared_regions
               else packet_regions)
            ~state_footprint:footprint sizes
        in
        let counts = exec_counts df ~sizes ~facts in
        (* Per-axis service sums: count x trip-free node envelope.  A
           node no unit can execute contributes the conservative
           [0, inf) — the mapping would have rejected the program, but
           bounds must not claim a finite ceiling for it. *)
        let compute = ref I.bottom
        and mem = ref I.bottom
        and accel = ref I.bottom in
        let cadd cell v = cell := I.add (I.join !cell (I.const 0.)) v in
        let emit_always = ref false and emit_ever = ref false in
        Array.iter
          (fun (b : Ir.block) ->
            let c =
              I.mul counts.(b.Ir.bid) (header_multiplier sizes b)
            in
            if not (I.is_bottom c) then
              Array.iter
                (fun (n : D.Node.t) ->
                  let bd =
                    match Cr.node ctx n with
                    | Some bd -> bd
                    | None ->
                        { Cr.compute = I.make 0. Float.infinity; mem = I.const 0.;
                          accel = I.const 0. }
                  in
                  cadd compute (I.mul c bd.Cr.compute);
                  cadd mem (I.mul c bd.Cr.mem);
                  cadd accel (I.mul c bd.Cr.accel);
                  match n.D.Node.kind with
                  | D.Node.N_vcall v when v.Ir.vc = L.Params.V_emit ->
                      if I.hi c > 0. then emit_ever := true;
                      if I.lo c >= 1. then emit_always := true
                  | _ -> ())
                df.D.Graph.block_nodes.(b.Ir.bid))
          p.Ir.blocks;
        let orz v = I.join v (I.const 0.) in
        let compute = orz !compute
        and mem = orz !mem
        and accel = orz !accel in
        let rx = Cr.wire lnic ~packet_bytes:sizes.Cr.packet_bytes ~dir:`Rx in
        let tx_r = Cr.wire lnic ~packet_bytes:sizes.Cr.packet_bytes ~dir:`Tx in
        let tx =
          I.make
            (if !emit_always then I.lo tx_r else 0.)
            (if !emit_ever then I.hi tx_r else 0.)
        in
        let wire = I.add rx tx in
        (* Fold accelerator service into compute — the basis the
           calibration ledger compares on (the simulator attributes
           Accel_use to its compute column). *)
        let compute = I.add compute accel in
        let service = I.add compute (I.add mem wire) in
        (* Contention allowances.  Queue: an admitted packet finds at
           most capacity-1 packets ahead, served by [threads] workers.
           Accel wait: every thread's packet may be queued on the same
           accelerator ahead of ours. *)
        let hi_service = I.hi service in
        let queue_hi =
          if queue_cap <= 1 then 0.
          else
            Float.of_int ((queue_cap - 1 + threads - 1) / threads) *. hi_service
        in
        let accel_wait_hi =
          if I.hi accel > 0. then float_of_int threads *. I.hi accel else 0.
        in
        let a_queue = I.make 0. queue_hi in
        let a_accel_wait = I.make 0. accel_wait_hi in
        let total = I.add service (I.add a_queue a_accel_wait) in
        {
          tb_type = ptype;
          tb_axes =
            { a_queue; a_compute = compute; a_accel_wait; a_mem = mem;
              a_wire = wire };
          tb_service = service;
          tb_total = total;
        })
      packet_types
  in
  {
    bt_prog = p.Ir.prog_name;
    bt_target = lnic.L.Graph.name;
    bt_freq_mhz = L.Graph.freq_mhz lnic;
    bt_per_type = per_type;
    bt_unbounded_loops = unbounded_loops ~payload_max df;
  }

let analyze ?payload_max ~lnic p = analyze_graph ?payload_max ~lnic (D.Build.of_ir p)

(* ---- SLO verdict --------------------------------------------------- *)

type verdict = Provably_meets | Provably_violates | Unclear

let verdict_name = function
  | Provably_meets -> "provably-meets"
  | Provably_violates -> "provably-violates"
  | Unclear -> "unclear"

let slo_cycles t ~slo_p99_us = slo_p99_us *. float_of_int t.bt_freq_mhz

(* Every packet's latency lies in [total.lo, total.hi], so p99 <= hi
   (meets is provable) and p99 >= lo over every packet (a violated lo
   on the all-type row means no packet can make the SLO). *)
let verdict t ~slo_p99_us =
  match find t "all" with
  | None -> Unclear
  | Some b ->
      let slo = slo_cycles t ~slo_p99_us in
      if I.hi b.tb_total <= slo then Provably_meets
      else if I.lo b.tb_total > slo then Provably_violates
      else Unclear

(* ---- lints --------------------------------------------------------- *)

let default_gap_ratio = 256.

let lint ?lnic ?slo_p99_us ?(gap_ratio = default_gap_ratio) (df : D.Graph.t) =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  List.iter
    (fun bid ->
      emit
        (Diag.make ~block:bid ~code:"CLARA401" ~severity:Diag.Error
           ~pass:"bounds"
           (Printf.sprintf
              "loop at b%d has no statically derivable iteration bound; \
               worst-case latency is unbounded (use a for-loop over a \
               payload- or table-sized range)"
              bid)))
    (unbounded_loops df);
  (match lnic with
  | None -> ()
  | Some lnic -> (
      let b = analyze_graph ~lnic df in
      (match find b "all" with
      | Some row ->
          let s = row.tb_service in
          if
            b.bt_unbounded_loops = []
            && I.is_finite s
            && I.lo s > 0.
            && I.hi s /. I.lo s > gap_ratio
          then
            emit
              (Diag.make ~code:"CLARA402" ~severity:Diag.Warn ~pass:"bounds"
                 (Printf.sprintf
                    "performance unclarity: static service bounds span a \
                     %.0fx ratio (%.0f..%.0f cycles), above the %.0fx \
                     threshold — latency depends heavily on data-dependent \
                     paths or cache/table regimes"
                    (I.hi s /. I.lo s) (I.lo s) (I.hi s) gap_ratio))
      | None -> ());
      match slo_p99_us with
      | None -> ()
      | Some slo ->
          if verdict b ~slo_p99_us:slo = Provably_violates then
            let row = Option.get (find b "all") in
            emit
              (Diag.make ~code:"CLARA403" ~severity:Diag.Error ~pass:"bounds"
                 (Printf.sprintf
                    "provable SLO violation: every packet needs at least \
                     %.0f cycles (%.2f us on %s), above the p99 SLO of %.2f \
                     us"
                    (I.lo row.tb_total)
                    (I.lo row.tb_total /. float_of_int b.bt_freq_mhz)
                    b.bt_target slo))));
  List.rev !diags

(* ---- rendering ----------------------------------------------------- *)

let us_of t cycles = cycles /. float_of_int t.bt_freq_mhz

let axis_list (a : axes) =
  [ ("queue", a.a_queue); ("compute", a.a_compute);
    ("accel_wait", a.a_accel_wait); ("mem", a.a_mem); ("wire", a.a_wire) ]

let to_json t =
  let module J = Clara_util.Json in
  J.Obj
    [
      ("program", J.String t.bt_prog);
      ("target", J.String t.bt_target);
      ("freq_mhz", J.Int t.bt_freq_mhz);
      ( "unbounded_loops",
        J.List (List.map (fun b -> J.Int b) t.bt_unbounded_loops) );
      ( "types",
        J.Obj
          (List.map
             (fun b ->
               ( b.tb_type,
                 J.Obj
                   (List.map
                      (fun (n, v) -> (n, I.to_json v))
                      (axis_list b.tb_axes)
                   @ [
                       ("service", I.to_json b.tb_service);
                       ("total", I.to_json b.tb_total);
                     ]) ))
             t.bt_per_type) );
    ]

let pp fmt t =
  Format.fprintf fmt "@[<v>static bounds %s on %s (cycles @@ %d MHz):@,"
    t.bt_prog t.bt_target t.bt_freq_mhz;
  Format.fprintf fmt "  %-8s %-22s %-22s %-22s@," "type" "service" "total"
    "total (us)";
  List.iter
    (fun b ->
      let us = I.scale (1. /. float_of_int t.bt_freq_mhz) b.tb_total in
      Format.fprintf fmt "  %-8s %-22s %-22s %-22s@," b.tb_type
        (Format.asprintf "%a" I.pp b.tb_service)
        (Format.asprintf "%a" I.pp b.tb_total)
        (Format.asprintf "%a" I.pp us))
    t.bt_per_type;
  if t.bt_unbounded_loops <> [] then
    Format.fprintf fmt "  unbounded loops at: %s@,"
      (String.concat ", "
         (List.map (fun b -> Printf.sprintf "b%d" b) t.bt_unbounded_loops));
  Format.fprintf fmt "@]"
