(** Configuration word model (Fig. 2c): the raw mux-select values that
    define the hardware/software contract. *)

(** Operand source selector: the PE's input mux. *)
type source =
  | Src_none
  | Src_dir of int  (** index into the PE's neighbour list *)
  | Src_self  (** own output register *)
  | Src_rf of int  (** register-file entry (rotating, logical index) *)
  | Src_const  (** immediate field *)

type slot = {
  opcode : int;
  srcs : source array;  (** length 3: operand ports *)
  const : int;  (** immediate / stream id / array id *)
  rf_we : bool;
  rf_waddr : int;
}

val nop_slot : slot

(** One configuration of the whole array (one slot per PE). *)
type t = slot array

(** String interning for stream and array names carried in the const
    field. *)
module Dict : sig
  type t

  val create : unit -> t
end

(** Build the slot for an operation, putting its payload (immediate,
    stream id, array id) into the const field. *)
val slot_of_op : Dict.t -> Ocgra_dfg.Op.t -> source array -> slot

(** 53-bit word layout, low bits first: opcode:6 | src0:6 | src1:6 |
    src2:6 | rf_we:1 | rf_waddr:4 | const:24 (two's complement).  A
    source encodes as 0 none, 1 self, 2 const, 3+d [Src_dir d] and
    15+r [Src_rf r]. *)
val encode_slot : slot -> int64

(** Pretty-print a context memory (skipping NOP slots). *)
val pp_contexts : t array -> Cgra.t -> string
