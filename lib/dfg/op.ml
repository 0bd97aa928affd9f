(* The operation set of the intermediate representation.

   This is the operation vocabulary shared by the front-end, the
   mappers, the architecture model (PE capability sets name these
   classes) and the simulator (which gives each op its semantics). *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Min
  | Max
  | Lt
  | Le
  | Eq
  | Ne

type t =
  | Const of int (* immediate from the configuration word *)
  | Input of string (* live-in value / stream element, by name *)
  | Output of string (* live-out value / stream element, by name *)
  | Binop of binop
  | Not
  | Neg
  | Select (* inputs: condition, then-value, else-value *)
  | Load of string (* array load; input: index *)
  | Store of string (* array store; inputs: index, value *)
  | Route (* explicit routing node inserted by transformations *)
  | Vote (* majority voter over three redundant copies (TMR hardening) *)
  | Cmp (* duplicate comparator: passes operand 0, flags a mismatch (DMR) *)
  | Nop

(* Functional classes: the unit of heterogeneity in the architecture
   model.  A PE declares the classes it implements. *)
type func_class = F_alu | F_mul | F_mem | F_io | F_route

let func_class = function
  | Const _ | Binop (Add | Sub | And | Or | Xor | Shl | Shr | Min | Max | Lt | Le | Eq | Ne)
  | Not | Neg | Select | Vote | Cmp | Nop ->
      F_alu
  | Binop (Mul | Div | Rem) -> F_mul
  | Load _ | Store _ -> F_mem
  | Input _ | Output _ -> F_io
  | Route -> F_route

(* Issue-to-result latency in cycles.  Single-cycle PEs are the norm in
   the surveyed architectures (ADRES, MorphoSys); the checker and
   schedulers nevertheless treat latency symbolically. *)
let latency = function
  | Const _ | Input _ | Output _ | Route | Nop -> 1
  | Binop _ | Not | Neg | Select | Vote | Cmp -> 1
  | Load _ | Store _ -> 1

let arity = function
  | Const _ | Input _ | Nop -> 0
  | Output _ | Not | Neg | Route -> 1
  | Load _ -> 1
  | Binop _ | Cmp -> 2
  | Store _ -> 2
  | Select | Vote -> 3

(* Nodes whose effect must be preserved by dead-code elimination. *)
let has_side_effect = function
  | Output _ | Store _ -> true
  | Const _ | Input _ | Binop _ | Not | Neg | Select | Load _ | Route | Vote | Cmp | Nop -> false

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Min -> "min"
  | Max -> "max"
  | Lt -> "lt"
  | Le -> "le"
  | Eq -> "eq"
  | Ne -> "ne"

let to_string = function
  | Const c -> Printf.sprintf "const %d" c
  | Input s -> Printf.sprintf "in %s" s
  | Output s -> Printf.sprintf "out %s" s
  | Binop b -> binop_to_string b
  | Not -> "not"
  | Neg -> "neg"
  | Select -> "select"
  | Load a -> Printf.sprintf "load %s" a
  | Store a -> Printf.sprintf "store %s" a
  | Route -> "route"
  | Vote -> "vote"
  | Cmp -> "cmp"
  | Nop -> "nop"

let func_class_to_string = function
  | F_alu -> "alu"
  | F_mul -> "mul"
  | F_mem -> "mem"
  | F_io -> "io"
  | F_route -> "route"

let eval_binop b x y =
  match b with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then 0 else x / y
  | Rem -> if y = 0 then 0 else x mod y
  | And -> x land y
  | Or -> x lor y
  | Xor -> x lxor y
  | Shl -> x lsl (y land 31)
  | Shr -> x asr (y land 31)
  | Min -> min x y
  | Max -> max x y
  | Lt -> if x < y then 1 else 0
  | Le -> if x <= y then 1 else 0
  | Eq -> if x = y then 1 else 0
  | Ne -> if x <> y then 1 else 0

(* Bitwise majority: each result bit is the majority of the three
   operand bits, which is exactly the TMR voter circuit — a single
   flipped bit in any one copy is outvoted per bit. *)
let eval_vote a b c = (a land b) lor (b land c) lor (a land c)
