module D = Clara_dataflow
module L = Clara_lnic
module M = Clara_mapping.Mapping
module Ir = Clara_cir.Ir

type t = {
  nf_name : string;
  nic_name : string;
  mapping_lines : (string * string) list;
  paths : Clara_predict.Symexec.path list;
  prediction : Clara_predict.Latency.prediction option;
  throughput : Clara_predict.Throughput.t;
  energy : Clara_predict.Energy.t option;
  splits : (Clara_predict.Partial.split * string) list;
}

let node_label (n : D.Node.t) =
  match n.D.Node.kind with
  | D.Node.N_vcall v ->
      Printf.sprintf "n%d %s" n.D.Node.id (Clara_lnic.Params.vcall_name v.Ir.vc)
  | D.Node.N_compute is -> Printf.sprintf "n%d compute[%d]" n.D.Node.id (List.length is)

(* The partial-offloading section ranks this many cuts. *)
let max_splits = 8

let build ?trace ?rate_pps (a : Pipeline.analysis) =
  let lnic = a.Pipeline.lnic and df = a.Pipeline.df and mapping = a.Pipeline.mapping in
  let sizes = a.Pipeline.sizes and prob = a.Pipeline.prob in
  let mapping_lines =
    (Array.to_list df.D.Graph.nodes
    |> List.map (fun n ->
           (node_label n, (L.Graph.unit_ lnic mapping.M.node_unit.(n.D.Node.id)).L.Unit_.name)))
    @ (D.Graph.states df
      |> List.map (fun (s : Ir.state_obj) ->
             let where =
               match M.placement_of_state mapping s.Ir.st_name with
               | Some (M.In_memory m) -> (L.Graph.memory lnic m).L.Memory.name
               | Some (M.In_accel u) -> (L.Graph.unit_ lnic u).L.Unit_.name ^ " (SRAM)"
               | None -> "?"
             in
             (Printf.sprintf "state %s (%d x %dB)" s.Ir.st_name s.Ir.st_entries
                s.Ir.st_entry_bytes, where)))
  in
  let paths = Clara_predict.Symexec.enumerate ~sizes lnic df mapping in
  let prediction = Option.map (Pipeline.predict a) trace in
  let throughput = Clara_predict.Throughput.estimate ~sizes ~prob lnic df mapping in
  let energy =
    Option.map
      (fun rate -> Clara_predict.Energy.estimate ~sizes ~prob ~rate_pps:rate lnic df mapping)
      rate_pps
  in
  let splits =
    (* Meaningless when analyzing the host itself. *)
    if lnic.L.Graph.name = "x86-host" then []
    else
      Clara_predict.Partial.enumerate_splits ~sizes ~prob lnic df mapping
      |> List.filteri (fun i _ -> i < max_splits)
      |> List.map (fun s -> (s, Clara_predict.Partial.describe df s))
  in
  {
    nf_name = df.D.Graph.cir.Ir.prog_name;
    nic_name = lnic.L.Graph.name;
    mapping_lines;
    paths;
    prediction;
    throughput;
    energy;
    splits;
  }

let render fmt t =
  Format.fprintf fmt "=== Clara performance profile: %s on %s ===@." t.nf_name t.nic_name;
  Format.fprintf fmt "@.-- mapping (compute Π / memory Γ) --@.";
  List.iter
    (fun (what, where) -> Format.fprintf fmt "  %-32s -> %s@." what where)
    t.mapping_lines;
  Format.fprintf fmt "@.-- per-packet-type latency (symbolic paths) --@.";
  List.iter
    (fun p -> Format.fprintf fmt "  %a@." Clara_predict.Symexec.pp_path p)
    t.paths;
  (match t.prediction with
  | None -> ()
  | Some p ->
      Format.fprintf fmt "@.-- workload prediction --@.  %a@."
        Clara_predict.Latency.pp_prediction p);
  Format.fprintf fmt "@.-- idealized throughput --@.  %a@." Clara_predict.Throughput.pp
    t.throughput;
  (match t.energy with
  | None -> ()
  | Some e ->
      Format.fprintf fmt "@.-- energy --@.  %a@." Clara_predict.Energy.pp e;
      List.iter
        (fun (unit_, nj) -> Format.fprintf fmt "    %-20s %10.1f nJ/pkt@." unit_ nj)
        e.Clara_predict.Energy.breakdown);
  if t.splits <> [] then begin
    Format.fprintf fmt "@.-- partial offloading --@.";
    List.iteri
      (fun i (s, description) ->
        Format.fprintf fmt "  %s%a  %s@."
          (if i = 0 then "-> " else "   ")
          Clara_predict.Partial.pp s description)
      t.splits
  end

let to_string t = Format.asprintf "%a" render t

let to_json t =
  let open Clara_util.Json in
  let prediction_json (p : Clara_predict.Latency.prediction) =
    Obj
      [ ("mean_cycles", Float p.Clara_predict.Latency.mean_cycles);
        ("p50_cycles", Float p.Clara_predict.Latency.p50_cycles);
        ("p99_cycles", Float p.Clara_predict.Latency.p99_cycles);
        ("tcp_mean", Float p.Clara_predict.Latency.tcp_mean);
        ("udp_mean", Float p.Clara_predict.Latency.udp_mean);
        ("syn_mean", Float p.Clara_predict.Latency.syn_mean);
        ("emitted_fraction", Float p.Clara_predict.Latency.emitted_fraction) ]
  in
  let split_json ((s : Clara_predict.Partial.split), description) =
    Obj
      [ ("cut", Int s.Clara_predict.Partial.cut);
        ("total_ns", Float s.Clara_predict.Partial.total_ns);
        ("pcie_ns", Float s.Clara_predict.Partial.pcie_ns);
        ("nic_ns", Float s.Clara_predict.Partial.nic_ns);
        ("host_ns", Float s.Clara_predict.Partial.host_ns);
        ("description", String description) ]
  in
  Obj
    [ ("nf", String t.nf_name);
      ("nic", String t.nic_name);
      ( "mapping",
        List
          (List.map
             (fun (what, where) -> Obj [ ("what", String what); ("where", String where) ])
             t.mapping_lines) );
      ( "packet_types",
        List
          (List.map
             (fun (p : Clara_predict.Symexec.path) ->
               Obj
                 [ ("description", String p.Clara_predict.Symexec.description);
                   ("cycles", Float p.Clara_predict.Symexec.cost_cycles);
                   ("verdict", String (if p.Clara_predict.Symexec.emits then "emit" else "drop")) ])
             t.paths) );
      ( "prediction",
        match t.prediction with None -> Null | Some p -> prediction_json p );
      ( "throughput",
        Obj
          [ ("max_pps", Float t.throughput.Clara_predict.Throughput.max_pps);
            ("gbps", Float t.throughput.Clara_predict.Throughput.gbps_at_mean_packet);
            ( "bottleneck",
              String
                t.throughput.Clara_predict.Throughput.bottleneck
                  .Clara_predict.Throughput.resource ) ] );
      ( "energy",
        match t.energy with
        | None -> Null
        | Some e ->
            Obj
              [ ("nj_per_packet", Float e.Clara_predict.Energy.nj_per_packet);
                ("watts_at_rate", Float e.Clara_predict.Energy.watts_at_rate);
                ( "breakdown",
                  Obj
                    (List.map (fun (u, nj) -> (u, Float nj))
                       e.Clara_predict.Energy.breakdown) ) ] );
      ("partial_offload", match t.splits with [] -> Null | best :: _ -> split_json best);
      ("splits", List (List.map split_json t.splits)) ]
