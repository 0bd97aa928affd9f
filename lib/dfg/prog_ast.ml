(* Abstract syntax of the imperative mini-language used as front-end.

   This stands in for the C front-ends (LLVM/SUIF) of the surveyed
   compilers: what the back-end consumes is the CDFG/DFG this language
   lowers to, so the mapping code paths are exercised identically. *)

type expr =
  | Int of int
  | Var of string
  | Bin of Op.binop * expr * expr
  | Not of expr
  | Neg of expr
  | Select of expr * expr * expr (* cond ? a : b *)
  | Read of string * expr (* array element A[e] *)

type stmt =
  | Assign of string * expr
  | Write of string * expr * expr (* A[e1] = e2 *)
  | Emit of string * expr (* program output *)
  | If of expr * stmt list * stmt list
  | For of string * expr * expr * stmt list (* for v = lo to hi-1 *)

type t = stmt list

let rec expr_to_string = function
  | Int n -> string_of_int n
  | Var v -> v
  | Bin (b, x, y) ->
      Printf.sprintf "(%s %s %s)" (expr_to_string x) (Op.binop_to_string b) (expr_to_string y)
  | Not e -> Printf.sprintf "(not %s)" (expr_to_string e)
  | Neg e -> Printf.sprintf "(- %s)" (expr_to_string e)
  | Select (c, a, b) ->
      Printf.sprintf "(%s ? %s : %s)" (expr_to_string c) (expr_to_string a) (expr_to_string b)
  | Read (a, e) -> Printf.sprintf "%s[%s]" a (expr_to_string e)
