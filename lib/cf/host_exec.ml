(* Host-managed control flow over a CDFG: the default strategy of most
   surveyed systems — each basic block becomes one CGRA configuration,
   the host walks the control-flow graph, launching block
   configurations and carrying the live variables between them.

   This is an execution *plan* and cost model (block order is dynamic);
   it quantifies the host<->CGRA traffic that predication avoids. *)

open Ocgra_dfg

type block_plan = { block : int; live_in : string list; live_out : string list }

(* Host cycles per block launch and per live variable moved. *)
let launch_cost = 6
let transfer_cost_per_var = 2

let make_plan (cdfg : Cdfg.t) =
  List.map
    (fun (b : Cdfg.block) ->
      let dfg = Prog.block_dfg b in
      let live_in =
        Dfg.fold_nodes
          (fun nd acc -> match nd.Dfg.op with Op.Input s -> s :: acc | _ -> acc)
          dfg []
      in
      let live_out =
        Dfg.fold_nodes
          (fun nd acc -> match nd.Dfg.op with Op.Output s -> s :: acc | _ -> acc)
          dfg []
      in
      { block = b.id; live_in; live_out })
    (Cdfg.blocks cdfg)

(* Execute the CDFG with the interpreter semantics, tracking the block
   trace; returns (trace, env after).  Variables live in a host
   environment; memory arrays are shared. *)
let interpret ?(max_steps = 100_000) (cdfg : Cdfg.t) ~memory =
  let vars : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let mem = Hashtbl.create 8 in
  List.iter (fun (name, arr) -> Hashtbl.replace mem name (Array.copy arr)) memory;
  let outputs = Hashtbl.create 8 in
  let rec eval_expr (e : Prog_ast.expr) =
    match e with
    | Prog_ast.Int n -> n
    | Prog_ast.Var v -> ( match Hashtbl.find_opt vars v with Some x -> x | None -> 0)
    | Prog_ast.Bin (b, x, y) -> Op.eval_binop b (eval_expr x) (eval_expr y)
    | Prog_ast.Not e -> lnot (eval_expr e)
    | Prog_ast.Neg e -> -eval_expr e
    | Prog_ast.Select (c, a, b) -> if eval_expr c <> 0 then eval_expr a else eval_expr b
    | Prog_ast.Read (a, i) -> (
        match Hashtbl.find_opt mem a with
        | None -> 0
        | Some arr -> arr.(((eval_expr i mod Array.length arr) + Array.length arr) mod Array.length arr))
  in
  let run_block (b : Cdfg.block) =
    List.iter
      (fun s ->
        match s with
        | Cdfg.S_assign (v, e) -> Hashtbl.replace vars v (eval_expr e)
        | Cdfg.S_write (a, i, e) -> (
            match Hashtbl.find_opt mem a with
            | None -> ()
            | Some arr ->
                arr.(((eval_expr i mod Array.length arr) + Array.length arr) mod Array.length arr) <-
                  eval_expr e)
        | Cdfg.S_emit (o, e) ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt outputs o) in
            Hashtbl.replace outputs o (eval_expr e :: cur))
      b.stmts
  in
  let trace = ref [] in
  let steps = ref 0 in
  let rec go id =
    if !steps > max_steps then ()
    else begin
      incr steps;
      trace := id :: !trace;
      let b = Cdfg.block cdfg id in
      run_block b;
      match b.term with
      | Cdfg.Jump j -> go j
      | Cdfg.Branch { cond; if_true; if_false } ->
          let c = match Hashtbl.find_opt vars cond with Some x -> x | None -> 0 in
          go (if c <> 0 then if_true else if_false)
      | Cdfg.Return -> ()
    end
  in
  go 0;
  (List.rev !trace, outputs, vars)

(* Host-managed cost of one dynamic trace: launches + live transfers. *)
let trace_cost plan trace =
  List.fold_left
    (fun acc id ->
      match List.find_opt (fun bp -> bp.block = id) plan with
      | None -> acc
      | Some bp ->
          acc + launch_cost
          + (transfer_cost_per_var * (List.length bp.live_in + List.length bp.live_out)))
    0 trace
