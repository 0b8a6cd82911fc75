module L = Clara_lnic
module D = Clara_dataflow
module M = Clara_mapping.Mapping

type power_table = {
  general_core_w : float;
  accel_w : Clara_lnic.Unit_.accel_kind -> float;
  idle_w : float;
  dma_w_per_gbps : float;
}

let default_powers (g : L.Graph.t) =
  let clock = L.Graph.freq_mhz g in
  (* NPU-class (<1 GHz) vs ARM-class (1-2.5 GHz) vs Xeon-class. *)
  let general_core_w =
    if clock < 1000 then 0.35 else if clock <= 2500 then 1.8 else 9.0
  in
  let idle_w = if clock < 1000 then 18. else if clock <= 2500 then 22. else 60. in
  {
    general_core_w;
    accel_w =
      (function
      | L.Unit_.Checksum -> 0.2
      | L.Unit_.Parse -> 0.25
      | L.Unit_.Lookup -> 0.5
      | L.Unit_.Crypto -> 0.6
      | L.Unit_.Eswitch -> 0.8);
    idle_w;
    dma_w_per_gbps = 0.35;
  }

type t = {
  nj_per_packet : float;
  watts_at_rate : float;
  nj_per_packet_total : float;
  breakdown : (string * float) list;
}

let estimate ?powers ~sizes ~prob ~rate_pps lnic (df : D.Graph.t) (mapping : M.t) =
  let powers = match powers with Some p -> p | None -> default_powers lnic in
  let pricer = Pricer.create ~mapping lnic df in
  let sizes = Pricer.sizes pricer sizes in
  let weights = D.Graph.visits df ~prob in
  (* nJ on a unit = cycles × (power W / clock Hz) × 1e9. *)
  let nj_of unit_ cycles =
    let w =
      match unit_.L.Unit_.kind with
      | L.Unit_.General_core _ -> powers.general_core_w
      | L.Unit_.Accelerator k -> powers.accel_w k
    in
    cycles /. (float_of_int unit_.L.Unit_.freq_mhz *. 1e6) *. w *. 1e9
  in
  let breakdown = Hashtbl.create 8 in
  let add name nj =
    Hashtbl.replace breakdown name (nj +. Option.value ~default:0. (Hashtbl.find_opt breakdown name))
  in
  Array.iter
    (fun (n : D.Node.t) ->
      let unit_ = Pricer.mapped_unit pricer n in
      match Pricer.price pricer sizes n with
      | None -> ()
      | Some { D.Cost.total = c; _ } ->
          add unit_.L.Unit_.name (nj_of unit_ (weights.(n.D.Node.id) *. c)))
    df.D.Graph.nodes;
  (* DMA energy for moving the packet in, and out if it leaves: W per
     Gbps is J per Gbit, so nJ per packet = W/Gbps × bits moved. *)
  let bits_moved =
    (1. +. D.Graph.emit_mass df weights) *. 8. *. sizes.D.Cost.packet_bytes
  in
  add "wire-dma" (powers.dma_w_per_gbps *. bits_moved);
  let dynamic_nj = Hashtbl.fold (fun _ v acc -> acc +. v) breakdown 0. in
  let watts_at_rate = powers.idle_w +. (dynamic_nj *. 1e-9 *. rate_pps) in
  let idle_share_nj = if rate_pps > 0. then powers.idle_w /. rate_pps *. 1e9 else 0. in
  {
    nj_per_packet = dynamic_nj;
    watts_at_rate;
    nj_per_packet_total = dynamic_nj +. idle_share_nj;
    breakdown =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) breakdown []
      |> List.sort (fun (_, a) (_, b) -> compare b a);
  }

let pp fmt t =
  Format.fprintf fmt "%.0f nJ/pkt dynamic (%.0f nJ incl. idle), %.1f W at rate"
    t.nj_per_packet t.nj_per_packet_total t.watts_at_rate
