(* Tests over the extended NF corpus: every source analyzes, every port
   runs, and the cross-NF stories (FPU emulation, crypto engine,
   offloadability) hold. *)

module W = Clara_workload
module L = Clara_lnic
module Dev = Clara_nicsim.Device
module Eng = Clara_nicsim.Engine
module SStats = Clara_nicsim.Stats

let check = Alcotest.(check bool)
let lnic = L.Netronome.default

let profile = W.Profile.make ~packets:3_000 ~flow_count:800 ~rate_pps:60_000. ()
let trace = lazy (W.Trace.synthesize ~seed:13L profile)

let corpus =
  [ ("nat", Clara_nfs.Nat.source (), Clara_nfs.Nat.ported ~checksum_engine:true ());
    ("lpm", Clara_nfs.Lpm.source ~entries:4096,
     Clara_nfs.Lpm.ported ~entries:4096 ~use_flow_cache:true ());
    ("firewall", Clara_nfs.Firewall.source (), Clara_nfs.Firewall.ported ~placement:Dev.P_imem ());
    ("dpi", Clara_nfs.Dpi.source, Clara_nfs.Dpi.ported ());
    ("heavy-hitter", Clara_nfs.Heavy_hitter.source (), Clara_nfs.Heavy_hitter.ported ());
    ("vnf-chain", Clara_nfs.Vnf_chain.source (), Clara_nfs.Vnf_chain.ported ());
    ("kv-store", Clara_nfs.Kv_store.source (), Clara_nfs.Kv_store.ported ());
    ("load-balancer", Clara_nfs.Load_balancer.source (), Clara_nfs.Load_balancer.ported ());
    ("syn-proxy", Clara_nfs.Syn_proxy.source (), Clara_nfs.Syn_proxy.ported ());
    ("ipsec-gw", Clara_nfs.Ipsec_gw.source (), Clara_nfs.Ipsec_gw.ported ());
    ("telemetry", Clara_nfs.Telemetry.source (), Clara_nfs.Telemetry.ported ());
    ("tunnel-gw", Clara_nfs.Tunnel_gw.source (), Clara_nfs.Tunnel_gw.ported ()) ]

let test_all_sources_analyze () =
  List.iter
    (fun (name, src, _) ->
      match Clara.analyze_for_profile lnic ~source:src ~profile with
      | Ok a ->
          let p = Clara.predict_profile a profile in
          check (name ^ " predicts > 0") true (p.Clara_predict.Latency.mean_cycles > 0.)
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    corpus

let test_all_ports_run () =
  List.iter
    (fun (name, _, prog) ->
      let r = Eng.run lnic prog (Lazy.force trace) in
      check (name ^ " processes packets") true (r.Eng.summary.SStats.packets > 0);
      check (name ^ " latency sane") true
        (r.Eng.summary.SStats.mean_cycles > 1000.
        && r.Eng.summary.SStats.mean_cycles < 1e9))
    corpus

let test_all_sources_analyze_on_soc_and_host () =
  (* Every source must map on every target (no accel dependencies). *)
  List.iter
    (fun (name, src, _) ->
      List.iter
        (fun (tname, target) ->
          match Clara.analyze_for_profile target ~source:src ~profile with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Printf.sprintf "%s on %s: %s" name tname e))
        [ ("soc", L.Soc_nic.default); ("host", L.Host.default) ])
    corpus

let test_telemetry_fpu_story () =
  (* Float EWMA: emulated on NPUs, native on ARM/x86 — predicted compute
     gap must be large (§3.4 emulation accounting). *)
  let src = Clara_nfs.Telemetry.source () in
  let predict target =
    match Clara.analyze_for_profile target ~source:src ~profile with
    | Ok a ->
        let p = Clara.predict_profile a profile in
        (* Compare cycle counts normalized by clock: wall time. *)
        let freq =
          match L.Graph.general_cores target with
          | u :: _ -> float_of_int u.L.Unit_.freq_mhz
          | [] -> 1.
        in
        p.Clara_predict.Latency.mean_cycles /. freq
    | Error e -> Alcotest.fail e
  in
  let npu_us = predict lnic and soc_us = predict L.Soc_nic.default in
  check "telemetry slower on FPU-less NPUs" true (npu_us > soc_us)

let test_ipsec_crypto_engine_story () =
  let tr = Lazy.force trace in
  let eng = Eng.run lnic (Clara_nfs.Ipsec_gw.ported ~crypto_engine:true ()) tr in
  let sw = Eng.run lnic (Clara_nfs.Ipsec_gw.ported ~crypto_engine:false ()) tr in
  check "crypto engine much faster" true
    (sw.Eng.summary.SStats.mean_cycles > 1.5 *. eng.Eng.summary.SStats.mean_cycles)

let test_kv_store_get_set_paths () =
  (* Symbolic paths must distinguish GET-hit / GET-miss / SET. *)
  match Clara.analyze_for_profile lnic ~source:(Clara_nfs.Kv_store.source ()) ~profile with
  | Error e -> Alcotest.fail e
  | Ok a ->
      let paths =
        Clara_predict.Symexec.enumerate ~sizes:a.Clara.sizes lnic a.Clara.df a.Clara.mapping
      in
      check "at least 4 packet types" true (List.length paths >= 4);
      check "value-table hit distinguished" true
        (List.exists
           (fun p ->
             List.exists
               (fun d -> d.Clara_predict.Symexec.guard = Clara_cir.Ir.G_table_hit "values")
               p.Clara_predict.Symexec.decisions)
           paths)

let test_syn_proxy_syn_path_cheaper_than_miss () =
  (* SYNs are answered statelessly; unverified non-SYNs pay a lookup and
     a cookie check. *)
  match Clara.analyze_for_profile lnic ~source:(Clara_nfs.Syn_proxy.source ()) ~profile with
  | Error e -> Alcotest.fail e
  | Ok a ->
      let p = Clara.predict_profile a profile in
      check "per-type means differ" true
        (Float.abs
           (p.Clara_predict.Latency.syn_mean -. p.Clara_predict.Latency.tcp_mean)
        > 1.)

let test_partial_offload_decisions () =
  (* NAT should fully offload; DPI should stay on the host. *)
  let best src =
    match Clara.analyze_for_profile lnic ~source:src ~profile with
    | Error e -> Alcotest.fail e
    | Ok a ->
        let s =
          Clara_predict.Partial.best_split ~sizes:a.Clara.sizes ~prob:a.Clara.prob lnic
            a.Clara.df a.Clara.mapping
        in
        let n = List.length s.Clara_predict.Partial.assignment in
        if s.Clara_predict.Partial.cut = n then `Nic
        else if s.Clara_predict.Partial.cut = 0 then `Host
        else `Split
  in
  check "NAT fully offloads" true (best (Clara_nfs.Nat.source ()) = `Nic);
  check "DPI stays on host" true (best Clara_nfs.Dpi.source = `Host)

(* The all-host split's NIC part is only the receive leg, priced as
   the predictor prices it: [Pricer.rx_cycles], DMA plus the hub
   constant, in ns at the NIC's clock, on every target that has a hub. *)
let test_partial_wire_is_pricer_rx () =
  List.iter
    (fun target ->
      let nic = List.assoc target L.Targets.all in
      match Clara.analyze_for_profile nic ~source:(Clara_nfs.Nat.source ()) ~profile with
      | Error e -> Alcotest.fail e
      | Ok a ->
          let all_host =
            List.find
              (fun s -> s.Clara_predict.Partial.cut = 0)
              (Clara_predict.Partial.enumerate_splits ~sizes:a.Clara.sizes ~prob:a.Clara.prob
                 nic a.Clara.df a.Clara.mapping)
          in
          let bytes = a.Clara.sizes.Clara_dataflow.Cost.packet_bytes in
          let rx =
            Clara_predict.Pricer.rx_cycles (Clara_predict.Pricer.wire nic) ~bytes
            *. 1000. /. float_of_int (L.Graph.freq_mhz nic)
          in
          Alcotest.(check (float 0.)) (target ^ ": all-host NIC part = rx leg") rx
            all_host.Clara_predict.Partial.nic_ns)
    [ "netronome"; "soc"; "bluefield" ]

let test_partial_split_invariants () =
  match Clara.analyze_for_profile lnic ~source:(Clara_nfs.Vnf_chain.source ()) ~profile with
  | Error e -> Alcotest.fail e
  | Ok a ->
      let splits =
        Clara_predict.Partial.enumerate_splits ~sizes:a.Clara.sizes ~prob:a.Clara.prob lnic
          a.Clara.df a.Clara.mapping
      in
      check "at least the two trivial splits" true (List.length splits >= 2);
      let sorted = List.map (fun s -> s.Clara_predict.Partial.total_ns) splits in
      check "cheapest first" true (sorted = List.sort compare sorted);
      List.iter
        (fun s ->
          check "totals add up" true
            (Float.abs
               (s.Clara_predict.Partial.total_ns
               -. (s.Clara_predict.Partial.nic_ns +. s.Clara_predict.Partial.host_ns
                  +. s.Clara_predict.Partial.pcie_ns))
            < 1e-6);
          (* A state object never appears on both sides. *)
          let state_of nid =
            match (Clara_dataflow.Graph.node a.Clara.df nid).Clara_dataflow.Node.kind with
            | Clara_dataflow.Node.N_vcall v -> v.Clara_cir.Ir.state
            | _ -> None
          in
          let nic_states, host_states =
            List.fold_left
              (fun (ns, hs) (nid, side) ->
                match state_of nid with
                | None -> (ns, hs)
                | Some st -> (
                    match side with
                    | Clara_predict.Partial.On_nic -> (st :: ns, hs)
                    | Clara_predict.Partial.On_host -> (ns, st :: hs)))
              ([], []) s.Clara_predict.Partial.assignment
          in
          check "no state split across PCIe" true
            (List.for_all (fun st -> not (List.mem st host_states)) nic_states))
        splits

(* Cut 0 puts nothing on the NIC, so every NF has the all-host split on
   every target: the ranked list is never empty and the best split is
   its head. *)
let test_partial_all_host_split () =
  List.iter
    (fun nic ->
      let target = Result.get_ok (L.Targets.of_name nic) in
      List.iter
        (fun (name, src, _) ->
          match Clara.analyze_for_profile target ~source:src ~profile with
          | Error e -> Alcotest.fail (name ^ " on " ^ nic ^ ": " ^ e)
          | Ok a ->
              let module P = Clara_predict.Partial in
              let splits =
                P.enumerate_splits ~sizes:a.Clara.sizes ~prob:a.Clara.prob target a.Clara.df
                  a.Clara.mapping
              in
              let label = name ^ " on " ^ nic in
              check (label ^ ": cut 0 listed") true
                (List.exists (fun s -> s.P.cut = 0) splits);
              check (label ^ ": best split is the head") true
                (P.best_split ~sizes:a.Clara.sizes ~prob:a.Clara.prob target a.Clara.df
                   a.Clara.mapping
                = List.hd splits))
        corpus)
    [ "netronome"; "soc"; "bluefield" ]

let test_energy_estimates () =
  let energy target src =
    match Clara.analyze_for_profile target ~source:src ~profile with
    | Error e -> Alcotest.fail e
    | Ok a ->
        Clara_predict.Energy.estimate ~sizes:a.Clara.sizes ~prob:a.Clara.prob ~rate_pps:60_000.
          target a.Clara.df a.Clara.mapping
  in
  let nat_npu = energy lnic (Clara_nfs.Nat.source ()) in
  check "positive energy" true (nat_npu.Clara_predict.Energy.nj_per_packet > 0.);
  check "watts include idle" true (nat_npu.Clara_predict.Energy.watts_at_rate > 10.);
  check "breakdown non-empty" true (nat_npu.Clara_predict.Energy.breakdown <> []);
  (* The E3 story: per-packet dynamic energy on the NIC is below the
     Xeon host for the same NF. *)
  let nat_host = energy L.Host.default (Clara_nfs.Nat.source ()) in
  check "NIC more energy-efficient than host" true
    (nat_npu.Clara_predict.Energy.nj_per_packet
    < nat_host.Clara_predict.Energy.nj_per_packet);
  (* DPI burns more than NAT on the same target. *)
  let dpi_npu = energy lnic Clara_nfs.Dpi.source in
  check "dpi > nat energy" true
    (dpi_npu.Clara_predict.Energy.nj_per_packet > nat_npu.Clara_predict.Energy.nj_per_packet)

let test_corpus_registry () =
  let names = Clara_nfs.Corpus.names in
  check "twelve NFs" true (List.length names = 12);
  check "names unique" true (List.length (List.sort_uniq compare names) = List.length names);
  check "find works" true (Clara_nfs.Corpus.find "nat" <> None);
  check "find rejects" true (Clara_nfs.Corpus.find "bogus" = None);
  (* Every corpus source analyzes and every port matches its source name
     family. *)
  List.iter
    (fun (e : Clara_nfs.Corpus.entry) ->
      match Clara.analyze_for_profile lnic ~source:e.Clara_nfs.Corpus.source ~profile with
      | Ok _ -> ()
      | Error err -> Alcotest.fail (e.Clara_nfs.Corpus.name ^ ": " ^ err))
    Clara_nfs.Corpus.all

let test_host_model_valid () =
  check "host graph valid" true (L.Validate.is_valid L.Host.default);
  check "host has no accelerators" true (L.Graph.accelerators L.Host.default = []);
  check "host cores have fpu" true
    (List.for_all
       (fun u ->
         match u.L.Unit_.kind with
         | L.Unit_.General_core { has_fpu; _ } -> has_fpu
         | _ -> false)
       (L.Graph.general_cores L.Host.default))

let test_corpus_resolves_paths () =
  let name arg = Option.map (fun (e : Clara_nfs.Corpus.entry) -> e.Clara_nfs.Corpus.name)
      (Result.to_option (Clara_nfs.Corpus.resolve arg)) in
  Alcotest.(check (option string)) "source path" (Some "syn-proxy")
    (name "examples/nf_sources/syn_proxy.clara");
  Alcotest.(check (option string)) "corpus name" (Some "nat") (name "nat");
  Alcotest.(check (option string)) "unknown" None (name "examples/nf_sources/nope.clara");
  (* An existing file resolves only when it is the entry's NF: the same
     CIR, whatever its comments say. *)
  let dir = Filename.temp_dir "clara_resolve" "" in
  let path = Filename.concat dir "nat.clara" in
  let saved text =
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    name path
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check (option string)) "corpus source with a comment" (Some "nat")
        (saved ("// my copy\n" ^ Clara_nfs.Nat.source ()));
      Alcotest.(check (option string)) "drop-all NF saved as nat.clara" None
        (saved "nf nat {\n  handler process(pkt) {\n    drop(pkt);\n  }\n}\n"))

let suite =
  [ Alcotest.test_case "all sources analyze (netronome)" `Quick test_all_sources_analyze;
    Alcotest.test_case "all ports run" `Quick test_all_ports_run;
    Alcotest.test_case "all sources analyze (soc, host)" `Quick
      test_all_sources_analyze_on_soc_and_host;
    Alcotest.test_case "telemetry FPU emulation story" `Quick test_telemetry_fpu_story;
    Alcotest.test_case "ipsec crypto engine story" `Quick test_ipsec_crypto_engine_story;
    Alcotest.test_case "kv-store packet types" `Quick test_kv_store_get_set_paths;
    Alcotest.test_case "syn-proxy per-type latency" `Quick
      test_syn_proxy_syn_path_cheaper_than_miss;
    Alcotest.test_case "partial offload decisions" `Quick test_partial_offload_decisions;
    Alcotest.test_case "partial split invariants" `Quick test_partial_split_invariants;
    Alcotest.test_case "partial wire is the pricer's rx leg" `Quick test_partial_wire_is_pricer_rx;
    Alcotest.test_case "partial all-host split always listed" `Quick
      test_partial_all_host_split;
    Alcotest.test_case "energy estimates" `Quick test_energy_estimates;
    Alcotest.test_case "corpus registry" `Quick test_corpus_registry;
    Alcotest.test_case "corpus resolves source paths" `Quick test_corpus_resolves_paths;
    Alcotest.test_case "host model" `Quick test_host_model_valid ]
