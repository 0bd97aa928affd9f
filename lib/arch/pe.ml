(* Processing element (reconfigurable cell) description.

   A PE declares the functional classes it implements, the size of its
   local register file, and whether its configuration word carries an
   immediate field.  Heterogeneity in the surveyed architectures
   (memory units in one column, multipliers on a subset of cells) is
   expressed by giving different PEs different class sets. *)

open Ocgra_dfg

type t = {
  classes : Op.func_class list;
  rf_size : int; (* local register file entries usable for routing in time *)
  has_const : bool; (* immediate field in the configuration word *)
}

let make ?(rf_size = 4) ?(has_const = true) classes = { classes; rf_size; has_const }

(* Every PE can forward values (route), mirroring the datapath muxes. *)
let has_class t c = c = Op.F_route || List.mem c t.classes

let supports t op =
  match op with
  | Op.Const _ -> t.has_const
  | _ -> has_class t (Op.func_class op)

let to_string t =
  Printf.sprintf "{%s; rf=%d%s}"
    (String.concat "," (List.map Op.func_class_to_string t.classes))
    t.rf_size
    (if t.has_const then "; const" else "")
