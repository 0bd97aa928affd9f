(** Abstract syntax of the imperative mini-language front-end (the
    stand-in for the C front-ends of the surveyed compilers). *)

type expr =
  | Int of int
  | Var of string
  | Bin of Op.binop * expr * expr
  | Not of expr
  | Neg of expr
  | Select of expr * expr * expr  (** cond ? a : b *)
  | Read of string * expr  (** array element A\[e\] *)

type stmt =
  | Assign of string * expr
  | Write of string * expr * expr  (** A\[e1\] = e2 *)
  | Emit of string * expr  (** program output *)
  | If of expr * stmt list * stmt list
  | For of string * expr * expr * stmt list  (** for v = lo to hi-1 *)

type t = stmt list

val expr_to_string : expr -> string
