(** The survey's corpus: the CGRA-mapping publications cited by the
    paper as structured records.  Reference numbers follow the paper's
    bibliography; cell tags transcribe Table I; topic tags transcribe
    the Fig. 4 annotations.  The generated Table I is unit-tested to
    match the paper cell by cell. *)

type scope = S_spatial | S_temporal | S_binding | S_scheduling

type technique =
  | T_heuristic
  | T_ga
  | T_sa
  | T_qea
  | T_ilp
  | T_bb
  | T_cp
  | T_sat
  | T_smt

type topic =
  | Modulo_scheduling
  | Loop_unrolling
  | Full_predication
  | Partial_predication
  | Dual_issue
  | Direct_mapping
  | Memory_aware
  | Hardware_loops
  | Polyhedral
  | Register_allocation
  | Streaming
  | Hierarchical
  | Nested_loops
  | Ai_based

type entry = {
  ref_no : int;
  authors : string;
  title : string;
  year : int;
  cells : (scope * technique) list;
  topics : topic list;
}

val entries : entry list
val scope_to_string : scope -> string
val technique_to_string : technique -> string
val topic_to_string : topic -> string

val with_topic : topic -> entry list

(** Sorted reference numbers of one Table I cell. *)
val in_cell : scope -> technique -> int list
