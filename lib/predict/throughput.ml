module L = Clara_lnic
module D = Clara_dataflow
module M = Clara_mapping.Mapping
module P = Clara_lnic.Params

type bottleneck = {
  resource : string;
  cycles_per_packet : float;
  parallelism : int;
  max_pps : float;
}

type t = {
  max_pps : float;
  gbps_at_mean_packet : float;
  bottleneck : bottleneck;
  resources : bottleneck list;
}

let estimate ~sizes ~prob lnic (df : D.Graph.t) (mapping : M.t) =
  let pricer = Pricer.create ~mapping lnic df in
  let sizes = Pricer.sizes pricer sizes in
  let weights = D.Graph.visits df ~prob in
  (* Expected demand per unit: weighted node costs, grouped by the class
     the node was mapped to.  Units of one placement class pool their
     threads. *)
  let demand = Hashtbl.create 8 (* rep unit id -> cycles *) in
  Array.iter
    (fun (n : D.Node.t) ->
      let uid = mapping.M.node_unit.(n.D.Node.id) in
      match Pricer.price pricer sizes n with
      | None -> ()
      | Some { D.Cost.total = c; _ } ->
          let cur = Option.value ~default:0. (Hashtbl.find_opt demand uid) in
          Hashtbl.replace demand uid (cur +. (weights.(n.D.Node.id) *. c)))
    df.D.Graph.nodes;
  (* Shared zero/negative-cost convention: a non-positive service time
     means the resource imposes no throughput bound.  Sub-cycle costs are
     honored as-is rather than being rounded up to a full cycle. *)
  let pps_of ~hz ~parallelism cycles =
    if cycles <= 0. then Float.infinity else hz *. float_of_int parallelism /. cycles
  in
  let resource_of uid cycles =
    let unit_ = L.Graph.unit_ lnic uid in
    (* Run-to-completion NFs replicate across every general core; the
       mapping's class choice matters for latency (NUMA), not for the
       thread pool.  Accelerators are single servers. *)
    let parallelism =
      if Clara_lnic.Unit_.is_general unit_ then L.Graph.total_threads lnic else 1
    in
    let hz = float_of_int unit_.L.Unit_.freq_mhz *. 1e6 in
    {
      resource = unit_.L.Unit_.name;
      cycles_per_packet = cycles;
      parallelism;
      max_pps = pps_of ~hz ~parallelism cycles;
    }
  in
  let wire_resource =
    (* The DMA path handles every packet serially per direction; only
       the packets that leave pay the transmit leg. *)
    let params = lnic.L.Graph.params in
    let cycles =
      L.Cost_fn.eval params.P.wire_ingress sizes.D.Cost.packet_bytes
      +. D.Graph.emit_mass df weights
         *. L.Cost_fn.eval params.P.wire_egress sizes.D.Cost.packet_bytes
    in
    let freq = float_of_int (L.Graph.freq_mhz lnic) *. 1e6 in
    (* The receive and transmit lanes together. *)
    let parallelism = 2 * L.Graph.dma_lanes in
    { resource = "wire-dma"; cycles_per_packet = cycles; parallelism;
      max_pps = pps_of ~hz:freq ~parallelism cycles }
  in
  let resources =
    wire_resource
    :: Hashtbl.fold (fun uid c acc -> resource_of uid c :: acc) demand []
  in
  let resources =
    List.sort
      (fun (a : bottleneck) (b : bottleneck) -> compare a.max_pps b.max_pps)
      resources
  in
  let bottleneck = List.hd resources in
  let bits = 8. *. sizes.D.Cost.packet_bytes in
  {
    max_pps = bottleneck.max_pps;
    gbps_at_mean_packet = bottleneck.max_pps *. bits /. 1e9;
    bottleneck;
    resources;
  }

let pp fmt t =
  Format.fprintf fmt "max %.0f pps (%.2f Gbps), bottleneck %s (%.0f cyc/pkt, %dx)"
    t.max_pps t.gbps_at_mean_packet t.bottleneck.resource
    t.bottleneck.cycles_per_packet t.bottleneck.parallelism

(* Sakasegawa's M/M/k mean-queue-wait approximation:
   Wq ≈ (rho^(sqrt(2(k+1)) - 1) / (k (1 - rho))) * service. *)
let mmk_wait ~service ~k ~rho =
  if rho >= 1. then None
  else begin
    let kf = float_of_int k in
    let expo = Float.sqrt (2. *. (kf +. 1.)) -. 1. in
    Some (Float.pow rho expo /. (kf *. (1. -. rho)) *. service)
  end

let latency_at_rate ~sizes ~prob ~base_cycles ~rate_pps lnic df mapping =
  let t = estimate ~sizes ~prob lnic df mapping in
  let rec add acc = function
    | [] -> Some acc
    | (r : bottleneck) :: rest ->
        if r.cycles_per_packet <= 0. then add acc rest
        else begin
          let rho = rate_pps /. r.max_pps in
          match mmk_wait ~service:r.cycles_per_packet ~k:r.parallelism ~rho with
          | None -> None
          | Some wq -> add (acc +. wq) rest
        end
  in
  add base_cycles t.resources
