(* Guard probabilities for the dataflow, mapping and analysis tests:
   80% TCP / 20% UDP, 10% SYN, 90% table hits, 10% scan matches, 5%
   counter crossings, 0.5 for other flags and opaque guards — the kind
   of abstract profile the paper gives as an example (§3.5). *)
let default_probability =
  Clara.prob_of_profile
    (Clara_workload.Profile.make ~tcp_fraction:0.8 ~flow_count:100 ~packets:1000
       ~new_flow_syn:true ())
