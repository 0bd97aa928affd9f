(** Control-flow mapping for if-then-else regions: the four basic
    methods of Section III.B.1 of the paper, each lowering the same
    branch to a different branch-free DFG.  All four are semantically
    equivalent (property-tested); they differ in op count and depth. *)

type scheme =
  | Full_predication  (** both branches execute, Select at every merge [56] *)
  | Partial_predication  (** branch bodies shared by CSE, Selects at merges [57] *)
  | Dual_issue  (** producers fused into the Select itself [55], [58], [59] *)
  | Direct_cdfg  (** both regions mapped, explicit predicate broadcast [60] *)

val scheme_to_string : scheme -> string

(** An if-then-else region: straight-line branches assigning
    variables; every assigned variable is merged and emitted. *)
type ite = {
  cond : Ocgra_dfg.Prog_ast.expr;
  then_branch : (string * Ocgra_dfg.Prog_ast.expr) list;
  else_branch : (string * Ocgra_dfg.Prog_ast.expr) list;
}

(** Each scheme with its DFG, op count and critical path. *)
val compare_schemes : ite -> (scheme * Ocgra_dfg.Dfg.t * int * int) list
