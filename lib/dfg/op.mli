(** The operation vocabulary shared by the front-end, the mappers, the
    architecture model and the simulator. *)

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
  | Const of int  (** immediate from the configuration word *)
  | Input of string  (** live-in / stream element, by name *)
  | Output of string  (** live-out / stream element, by name *)
  | Binop of binop
  | Not
  | Neg
  | Select  (** operands: condition, then-value, else-value *)
  | Load of string  (** array load; operand: index *)
  | Store of string  (** array store; operands: index, value *)
  | Route  (** explicit routing node inserted by transformations *)
  | Vote  (** majority voter over three redundant copies (TMR hardening) *)
  | Cmp  (** duplicate comparator: passes operand 0, flags a mismatch (DMR) *)
  | Nop

(** Functional classes: the unit of heterogeneity in the architecture
    model (a PE declares which classes it implements). *)
type func_class = F_alu | F_mul | F_mem | F_io | F_route

val func_class : t -> func_class

(** Issue-to-result latency in cycles (single-cycle PEs throughout, but
    the schedulers treat it symbolically). *)
val latency : t -> int

(** Number of operand ports. *)
val arity : t -> int

(** Must be preserved by dead-code elimination. *)
val has_side_effect : t -> bool

val binop_to_string : binop -> string
val to_string : t -> string
val func_class_to_string : func_class -> string

(** Integer semantics used by both the interpreter and the simulator
    (division by zero yields 0; shifts mask their amount). *)
val eval_binop : binop -> int -> int -> int

(** Bitwise majority of three values — the TMR voter circuit.  Any two
    equal operands win; differing bits are resolved per bit. *)
val eval_vote : int -> int -> int -> int
