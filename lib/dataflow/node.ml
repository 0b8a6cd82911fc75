type kind =
  | N_compute of Clara_cir.Ir.instr list
  | N_vcall of Clara_cir.Ir.vcall_info

type t = {
  id : int;
  kind : kind;
  block : int;
  loop_trip : Clara_cir.Ir.size_expr option;
}

let is_vcall t = match t.kind with N_vcall _ -> true | N_compute _ -> false
let vcall t = match t.kind with N_vcall v -> Some v | N_compute _ -> None

let state t =
  match t.kind with
  | N_vcall v -> v.Clara_cir.Ir.state
  | N_compute is -> List.find_map Clara_cir.Ir.instr_state is

let instr_count t =
  match t.kind with N_vcall _ -> 1 | N_compute is -> List.length is

let pp fmt t =
  match t.kind with
  | N_vcall v ->
      Format.fprintf fmt "n%d[%s]" t.id (Clara_lnic.Params.vcall_name v.Clara_cir.Ir.vc)
  | N_compute is -> Format.fprintf fmt "n%d[compute:%d]" t.id (List.length is)
