module L = Clara_lnic
module D = Clara_dataflow
module Ir = Clara_cir.Ir
module M = Clara_mapping.Mapping

type side = On_nic | On_host

type split = {
  cut : int;
  assignment : (int * side) list;
  nic_ns : float;
  host_ns : float;
  pcie_ns : float;
  total_ns : float;
}

(* A node's price on a unit, in ns. *)
let to_ns unit_ = Option.map (fun p -> p.D.Cost.total *. 1000. /. float_of_int unit_.L.Unit_.freq_mhz)

(* The all-host split and every feasible cut with a NIC part, largest
   NIC part first. *)
let cuts ~sizes ~prob lnic (df : D.Graph.t) (mapping : M.t) =
  let host = L.Host.default in
  let nic = Pricer.create ~mapping lnic df in
  (* No mapping on the host: its state always lives in host DRAM
     (LLC-cached), the pricer's external-memory fallback. *)
  let on_host = Pricer.create host df in
  let sizes = Pricer.sizes nic sizes in
  let host_core = List.hd (L.Graph.general_cores host) in
  let weights = D.Graph.visits df ~prob in
  let order = Array.of_list (D.Graph.topo_order df) in
  let n = Array.length order in
  (* Per-node expected ns on each side. *)
  let nic_cost = Array.make n 0. in
  let host_cost = Array.make n 0. in
  let feasible_nic = Array.make n true in
  Array.iteri
    (fun pos nid ->
      let node = D.Graph.node df nid in
      let w = weights.(nid) in
      (match to_ns (Pricer.mapped_unit nic node) (Pricer.price nic sizes node) with
      | Some ns -> nic_cost.(pos) <- w *. ns
      | None -> feasible_nic.(pos) <- false);
      match to_ns host_core (Pricer.price_on on_host host_core sizes node) with
      | Some ns -> host_cost.(pos) <- w *. ns
      | None ->
          (* Host cores run everything in software. *)
          host_cost.(pos) <- w *. 1000.)
    order;
  (* A cut k puts order[0..k-1] on the NIC.  Feasibility: no state used
     on both sides. *)
  let state_sides k =
    let nic_states = Hashtbl.create 4 and host_states = Hashtbl.create 4 in
    Array.iteri
      (fun pos nid ->
        match D.Node.state (D.Graph.node df nid) with
        | None -> ()
        | Some s ->
            if pos < k then Hashtbl.replace nic_states s ()
            else Hashtbl.replace host_states s ())
      order;
    Hashtbl.fold (fun s () acc -> acc && not (Hashtbl.mem host_states s)) nic_states true
  in
  (* Wire legs as the predictor prices them: DMA plus the hub constant. *)
  let bytes = sizes.D.Cost.packet_bytes in
  let ns target cycles = cycles *. 1000. /. float_of_int (L.Graph.freq_mhz target) in
  let emits = D.Graph.emit_mass df weights in
  let egress target = emits *. ns target (Pricer.tx_cycles (Pricer.wire target) ~bytes) in
  let nic_rx = ns lnic (Pricer.rx_cycles (Pricer.wire lnic) ~bytes) in
  let sum arr lo hi =
    let acc = ref 0. in
    for i = lo to hi - 1 do
      acc := !acc +. arr.(i)
    done;
    !acc
  in
  let split k =
    (* Wire: the NIC always receives the packet; whoever runs the tail
       transmits the packets that leave.  A non-trivial host part adds
       one PCIe round trip. *)
    let nic_ns =
      nic_rx +. sum nic_cost 0 k +. if k = n then egress lnic else 0.
    in
    let host_ns = if k = n then 0. else sum host_cost k n +. egress L.Host.default in
    let pcie_ns = if k = n then 0. else L.Host.pcie_roundtrip_ns in
    let assignment =
      Array.to_list (Array.mapi (fun pos nid -> (nid, if pos < k then On_nic else On_host)) order)
    in
    { cut = k; assignment; nic_ns; host_ns; pcie_ns; total_ns = nic_ns +. host_ns +. pcie_ns }
  in
  let feasible k = Array.for_all Fun.id (Array.sub feasible_nic 0 k) && state_sides k in
  (* Cut 0 puts nothing on the NIC, so no node is infeasible there and
     no state is on both sides: the all-host split always exists. *)
  (split 0, List.init n (fun i -> n - i) |> List.filter feasible |> List.map split)

let by_total a b = compare a.total_ns b.total_ns

(* Cheapest first; among equal totals the larger NIC part comes first
   and the all-host split last. *)
let enumerate_splits ~sizes ~prob lnic df mapping =
  let all_host, nic_cuts = cuts ~sizes ~prob lnic df mapping in
  List.stable_sort by_total (nic_cuts @ [ all_host ])

(* The head of [enumerate_splits], seeded with the split that always
   exists. *)
let best_split ~sizes ~prob lnic df mapping =
  let all_host, nic_cuts = cuts ~sizes ~prob lnic df mapping in
  List.fold_right (fun s best -> if by_total s best <= 0 then s else best) nic_cuts all_host

let describe (df : D.Graph.t) s =
  let n = List.length s.assignment in
  if s.cut = n then "fully offloaded to the NIC"
  else if s.cut = 0 then "fully on the host"
  else begin
    let nic_vcalls =
      List.filter_map
        (fun (nid, side) ->
          if side = On_nic then
            match (D.Graph.node df nid).D.Node.kind with
            | D.Node.N_vcall v -> Some (Clara_lnic.Params.vcall_name v.Ir.vc)
            | _ -> None
          else None)
        s.assignment
    in
    Printf.sprintf "NIC runs [%s]; rest on host" (String.concat ", " nic_vcalls)
  end

let pp fmt s =
  Format.fprintf fmt "cut@%d: nic %.0f ns + pcie %.0f ns + host %.0f ns = %.0f ns" s.cut
    s.nic_ns s.pcie_ns s.host_ns s.total_ns
