(* The classification of Table I: mapping scope x solving technique.

   Every mapper registers itself under one cell of this taxonomy; the
   bench regenerates Table I from these tags next to the bibliographic
   version from the survey dataset. *)

type scope =
  | Spatial_mapping
  | Temporal_mapping
  | Binding_only
  | Scheduling_only

type approach =
  | Heuristic
  | Meta_population of string (* GA, QEA *)
  | Meta_local of string (* SA *)
  | Exact_ilp
  | Exact_bb
  | Exact_cp
  | Exact_sat
  | Exact_smt

let scope_to_string = function
  | Spatial_mapping -> "Spatial mapping"
  | Temporal_mapping -> "Temporal mapping"
  | Binding_only -> "Binding"
  | Scheduling_only -> "Scheduling"

let approach_to_string = function
  | Heuristic -> "Heuristics"
  | Meta_population s -> Printf.sprintf "Population-based (%s)" s
  | Meta_local s -> Printf.sprintf "Local search (%s)" s
  | Exact_ilp -> "ILP"
  | Exact_bb -> "B&B"
  | Exact_cp -> "CP"
  | Exact_sat -> "SAT"
  | Exact_smt -> "SMT"

(* The four technique columns of Table I. *)
type column = Col_heuristics | Col_metaheuristics | Col_ilp_bb | Col_csp

let column_of_approach = function
  | Heuristic -> Col_heuristics
  | Meta_population _ | Meta_local _ -> Col_metaheuristics
  | Exact_ilp | Exact_bb -> Col_ilp_bb
  | Exact_cp | Exact_sat | Exact_smt -> Col_csp

let column_to_string = function
  | Col_heuristics -> "Heuristics"
  | Col_metaheuristics -> "Meta-heuristics"
  | Col_ilp_bb -> "ILP/B&B"
  | Col_csp -> "CSP"
