(* NIC selection: "which SmartNIC model is best for my workloads?"

   The paper's third use case (§1): target the same unported NFs at
   different SmartNIC backends — here a Netronome-like NPU-array NIC
   with match/action + flow-cache hardware, and an ARM-SoC NIC with
   faster general cores but no table hardware — and compare predictions
   per workload, before buying either.

   Run:  dune exec examples/nic_selection.exe *)

module W = Clara_workload
module L = Clara_lnic

let () =
  (* The shared registry of NIC models the CLI and sweep specs use. *)
  let targets = L.Targets.nics in
  let workloads =
    [ ( "lpm-20k / small packets (table-heavy)",
        Clara_nfs.Lpm.source ~entries:20_000,
        W.Profile.make ~payload:(W.Dist.Fixed 128) ~packets:5_000 ~flow_count:4_000
          ~rate_pps:60_000. () );
      ( "dpi / large packets (compute-heavy)",
        Clara_nfs.Dpi.source,
        W.Profile.make ~payload:(W.Dist.Fixed 1200) ~packets:5_000 ~flow_count:4_000
          ~rate_pps:60_000. () );
      ( "nat / mixed traffic",
        Clara_nfs.Nat.source (),
        W.Profile.make ~payload:(W.Dist.Fixed 400) ~packets:5_000 ~flow_count:8_000
          ~rate_pps:60_000. () ) ]
  in
  List.iter
    (fun (wname, source, profile) ->
      Printf.printf "\n%s\n" wname;
      let results =
        List.filter_map
          (fun (tname, lnic) ->
            match Clara.analyze_for_profile lnic ~source ~profile with
            | Error e ->
                Printf.printf "  %-16s error: %s\n" tname e;
                None
            | Ok a ->
                let p = Clara.predict_profile a profile in
                let tp =
                  Clara_predict.Throughput.estimate ~sizes:a.Clara.sizes ~prob:a.Clara.prob lnic
                    a.Clara.df a.Clara.mapping
                in
                let freq =
                  match L.Graph.general_cores lnic with
                  | u :: _ -> float_of_int u.L.Unit_.freq_mhz
                  | [] -> 1.
                in
                let us = p.Clara_predict.Latency.mean_cycles /. freq in
                Printf.printf "  %-16s latency %8.2f us   max tput %10.0f pps\n" tname us
                  tp.Clara_predict.Throughput.max_pps;
                Some (tname, us))
          targets
      in
      match List.sort (fun (_, a) (_, b) -> compare a b) results with
      | (winner, _) :: _ -> Printf.printf "  -> pick: %s\n" winner
      | [] -> ())
    workloads
