(* Pcap workflow: predict against a real capture (§3.5: "the user may
   provide a workload profile — e.g. a pcap trace").

   We synthesize a pcap on disk (standing in for a capture from the
   operator's network), read it back, and drive the prediction from its
   packets rather than from an abstract profile.

   Run:  dune exec examples/pcap_workflow.exe *)

module W = Clara_workload

let () =
  let path = Filename.temp_file "clara_example" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* Pretend this came from tcpdump. *)
      let captured =
        W.Trace.synthesize ~seed:99L
          (W.Profile.make ~tcp_fraction:0.7
             ~payload:(W.Dist.Bimodal (80, 1200, 0.6))
             ~flow_count:3_000 ~packets:8_000 ~rate_pps:60_000. ())
      in
      W.Pcap.write_file path captured;
      Printf.printf "capture: %s\n" path;

      (* Operator side: read the capture and look at it. *)
      let trace =
        match W.Pcap.read_file path with Ok t -> t | Error e -> failwith e
      in
      Format.printf "trace: %a@." W.Trace.pp_stats (W.Trace.stats trace);

      (* Predict the firewall's latency under exactly this traffic. *)
      let lnic = Clara_lnic.Netronome.default in
      let source = Clara_nfs.Firewall.source () in
      (* The mapping is solved at the capture's own mix; prediction then
         walks the real packets. *)
      match Clara.analyze_for_profile lnic ~source ~profile:(W.Trace.profile_of trace) with
      | Error e -> failwith e
      | Ok a ->
          let p = Clara.predict a trace in
          Format.printf "firewall on netronome-like NIC, captured traffic:@.  %a@."
            Clara_predict.Latency.pp_prediction p)
