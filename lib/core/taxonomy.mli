(** The classification of the survey's Table I: mapping scope x
    solving technique.  Every mapper registers under one cell. *)

type scope = Spatial_mapping | Temporal_mapping | Binding_only | Scheduling_only

type approach =
  | Heuristic
  | Meta_population of string  (** GA, QEA *)
  | Meta_local of string  (** SA *)
  | Exact_ilp
  | Exact_bb
  | Exact_cp
  | Exact_sat
  | Exact_smt

val scope_to_string : scope -> string
val approach_to_string : approach -> string

(** The four technique columns of Table I. *)
type column = Col_heuristics | Col_metaheuristics | Col_ilp_bb | Col_csp

val column_of_approach : approach -> column
val column_to_string : column -> string
