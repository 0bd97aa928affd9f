(* Control/Data Flow Graph: basic blocks of straight-line code joined
   by control edges (Fig. 3 of the paper: BB0 entry .. BB4 exit).

   Each block carries its statements in source form plus, once built, a
   per-block DFG whose Inputs/Outputs are the variables live across the
   block boundary.  Control-flow mapping strategies (host-managed
   execution, predication) consume this structure. *)

type terminator =
  | Jump of int
  | Branch of { cond : string; if_true : int; if_false : int } (* on variable value <> 0 *)
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

type t = { mutable blocks : block list (* reversed *); mutable n : int }

let create () = { blocks = []; n = 0 }

let add_block ?(label = "") t =
  let id = t.n in
  let label = if label = "" then Printf.sprintf "BB%d" id else label in
  let b = { id; label; stmts = []; term = Return } in
  t.blocks <- b :: t.blocks;
  t.n <- id + 1;
  b

let blocks t = List.rev t.blocks

let block t id =
  match List.find_opt (fun b -> b.id = id) t.blocks with
  | Some b -> b
  | None -> invalid_arg "Cdfg.block: no such block"

let pp_terminator = function
  | Jump j -> Printf.sprintf "jump BB%d" j
  | Branch { cond; if_true; if_false } ->
      Printf.sprintf "branch %s ? BB%d : BB%d" cond if_true if_false
  | Return -> "return"

let to_string t =
  let buf = Buffer.create 256 in
  List.iter
    (fun b ->
      Buffer.add_string buf (Printf.sprintf "%s:\n" b.label);
      List.iter
        (fun s ->
          let line =
            match s with
            | S_assign (v, e) -> Printf.sprintf "  %s = %s" v (Prog_ast.expr_to_string e)
            | S_write (a, i, e) ->
                Printf.sprintf "  %s[%s] = %s" a (Prog_ast.expr_to_string i)
                  (Prog_ast.expr_to_string e)
            | S_emit (o, e) -> Printf.sprintf "  emit %s = %s" o (Prog_ast.expr_to_string e)
          in
          Buffer.add_string buf (line ^ "\n"))
        b.stmts;
      Buffer.add_string buf ("  " ^ pp_terminator b.term ^ "\n"))
    (blocks t);
  Buffer.contents buf
