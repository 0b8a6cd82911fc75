module Ir = Clara_cir.Ir

let rec payload_scaled = function
  | Ir.S_payload | Ir.S_packet -> true
  | Ir.S_scaled (e, _) | Ir.S_plus (e, _) -> payload_scaled e
  | Ir.S_const _ | Ir.S_header | Ir.S_state_entries _ | Ir.S_opaque -> false

let analyze (p : Ir.program) =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (* CLARA301: payload-scaled loops whose body writes the packet. *)
  Array.iter
    (fun (b : Ir.block) ->
      match b.Ir.term with
      | Ir.Loop { body; exit; trip } when payload_scaled trip ->
          let writes_packet bid =
            List.exists
              (function Ir.Store Ir.L_packet -> true | _ -> false)
              p.Ir.blocks.(bid).Ir.instrs
          in
          let bodies = Ir.loop_body p ~header:b.Ir.bid ~body ~exit in
          if List.exists writes_packet bodies then
            emit
              (Diag.make ~block:b.Ir.bid ~code:"CLARA301" ~severity:Diag.Warn
                 ~pass:"cost"
                 (Printf.sprintf
                    "loop at b%d (trip %s) writes the packet buffer every \
                     iteration: per-packet buffer traffic is quadratic in \
                     payload size once the buffer spills past the CTM \
                     threshold"
                    b.Ir.bid
                    (Format.asprintf "%a" Ir.pp_size trip)))
      | _ -> ())
    p.Ir.blocks;
  (* CLARA302: dangling state references, one report per name. *)
  let reported = Hashtbl.create 4 in
  Array.iter
    (fun (b : Ir.block) ->
      List.iteri
        (fun i instr ->
          match Ir.instr_state instr with
          | Some s
            when Ir.state_obj_opt p s = None && not (Hashtbl.mem reported s)
            ->
              Hashtbl.add reported s ();
              emit
                (Diag.make ~block:b.Ir.bid ~instr:i ~code:"CLARA302"
                   ~severity:Diag.Error ~pass:"cost"
                   (Printf.sprintf
                      "b%d references undeclared state '%s'; mapping would \
                       fail with Unknown_state"
                      b.Ir.bid s))
          | _ -> ())
        b.Ir.instrs)
    p.Ir.blocks;
  List.rev !diags
