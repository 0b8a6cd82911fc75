type entry = {
  name : string;
  description : string;
  source : string;
  ported : Clara_nicsim.Device.prog;
}

let all =
  [ { name = "nat";
      description = "network address translation: per-flow table + header rewrite";
      source = Nat.source ();
      ported = Nat.ported ~checksum_engine:true () };
    { name = "lpm";
      description = "longest-prefix-match forwarding (8k rules)";
      source = Lpm.source ~entries:8192;
      ported = Lpm.ported ~entries:8192 ~use_flow_cache:true () };
    { name = "firewall";
      description = "stateful firewall: SYN-established connection table";
      source = Firewall.source ();
      ported = Firewall.ported ~placement:Clara_nicsim.Device.P_imem () };
    { name = "dpi";
      description = "deep packet inspection: payload pattern scan";
      source = Dpi.source;
      ported = Dpi.ported () };
    { name = "heavy-hitter";
      description = "heavy-hitter detection: counting sketch + threshold";
      source = Heavy_hitter.source ();
      ported = Heavy_hitter.ported () };
    { name = "vnf-chain";
      description = "fused chain: DPI + metering + header mod + flow stats";
      source = Vnf_chain.source ();
      ported = Vnf_chain.ported () };
    { name = "kv-store";
      description = "NIC-side key/value cache (GET/SET over UDP)";
      source = Kv_store.source ();
      ported = Kv_store.ported () };
    { name = "load-balancer";
      description = "L4 load balancer: connection affinity + consistent hash";
      source = Load_balancer.source ();
      ported = Load_balancer.ported () };
    { name = "syn-proxy";
      description = "SYN-cookie proxy with verified-connection whitelist";
      source = Syn_proxy.source ();
      ported = Syn_proxy.ported () };
    { name = "ipsec-gw";
      description = "IPsec ESP gateway: SA lookup + bulk crypto + encap";
      source = Ipsec_gw.source ();
      ported = Ipsec_gw.ported () };
    { name = "telemetry";
      description = "per-flow telemetry with floating-point EWMA (FPU story)";
      source = Telemetry.source ();
      ported = Telemetry.ported () };
    { name = "tunnel-gw";
      description = "VXLAN-style tunnel gateway: VNI lookup + encap";
      source = Tunnel_gw.source ();
      ported = Tunnel_gw.ported () } ]

let find name = List.find_opt (fun e -> e.name = name) all

(* A file is an entry's NF when both lower to the same CIR: comments and
   layout may differ, the program may not. *)
let same_program path e =
  let lower = Clara_cir.Lower.of_source in
  match (lower (In_channel.with_open_bin path In_channel.input_all), lower e.source) with
  | Ok a, Ok b -> a = b
  | _ | (exception Sys_error _) -> false

let names = List.map (fun e -> e.name) all

let resolve arg =
  match
    find
      (String.map
         (function '_' -> '-' | c -> c)
         (Filename.remove_extension (Filename.basename arg)))
  with
  | Some e when Sys.file_exists arg && not (same_program arg e) ->
      Error (Printf.sprintf "'%s' is not the source of corpus NF '%s'" arg e.name)
  | Some e -> Ok e
  | None ->
      Error (Printf.sprintf "unknown NF '%s' (try: %s)" arg (String.concat " " names))
