(** Control/Data Flow Graph: basic blocks of straight-line code joined
    by control edges (the Fig. 3 structure). *)

type terminator =
  | Jump of int
  | Branch of { cond : string; if_true : int; if_false : int }
      (** branch on variable value <> 0 *)
  | Return

type block = {
  id : int;
  label : string;
  mutable stmts : straight list;
  mutable term : terminator;
}

and straight =
  | S_assign of string * Prog_ast.expr
  | S_write of string * Prog_ast.expr * Prog_ast.expr
  | S_emit of string * Prog_ast.expr

type t

val create : unit -> t

(** Append an empty block (label defaults to BB<n>). *)
val add_block : ?label:string -> t -> block

(** Blocks in creation order (block 0 is the entry). *)
val blocks : t -> block list

(** Raises [Invalid_argument] on unknown ids. *)
val block : t -> int -> block

val to_string : t -> string
