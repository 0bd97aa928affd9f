(* Configuration word model (Fig. 2c of the paper).

   A context holds, for every PE, the raw values of all the signals
   that drive the datapath muxes during one cycle: the opcode, the
   operand sources, the immediate, and the register-file write port.
   The paper stresses that this format is "the contract between the
   hardware and the software"; [encode_slot] below is that contract,
   and the bench prints the fields the way Fig. 2c tabulates them. *)

open Ocgra_dfg

type source =
  | Src_none
  | Src_dir of int (* index into the PE's neighbour list (the input muxes) *)
  | Src_self (* own output register *)
  | Src_rf of int (* register file entry *)
  | Src_const (* immediate field *)

type slot = {
  opcode : int;
  srcs : source array; (* length 3: operand ports *)
  const : int; (* immediate / stream id / array id *)
  rf_we : bool;
  rf_waddr : int;
}

let nop_slot =
  { opcode = 0; srcs = [| Src_none; Src_none; Src_none |]; const = 0; rf_we = false; rf_waddr = 0 }

(* One context = one configuration of the whole array. *)
type t = slot array

(* ---------- opcode table ---------- *)

let binops =
  [| Op.Add; Op.Sub; Op.Mul; Op.Div; Op.Rem; Op.And; Op.Or; Op.Xor; Op.Shl; Op.Shr;
     Op.Min; Op.Max; Op.Lt; Op.Le; Op.Eq; Op.Ne |]

let opcode_of_op = function
  | Op.Nop -> 0
  | Op.Const _ -> 1
  | Op.Input _ -> 2
  | Op.Output _ -> 3
  | Op.Not -> 4
  | Op.Neg -> 5
  | Op.Select -> 6
  | Op.Load _ -> 7
  | Op.Store _ -> 8
  | Op.Route -> 9
  | Op.Binop b ->
      let rec idx i = if binops.(i) = b then i else idx (i + 1) in
      10 + idx 0
  | Op.Vote -> 10 + Array.length binops
  | Op.Cmp -> 11 + Array.length binops

let opcode_name = function
  | 0 -> "nop"
  | 1 -> "const"
  | 2 -> "input"
  | 3 -> "output"
  | 4 -> "not"
  | 5 -> "neg"
  | 6 -> "select"
  | 7 -> "load"
  | 8 -> "store"
  | 9 -> "route"
  | n when n >= 10 && n < 10 + Array.length binops -> Op.binop_to_string binops.(n - 10)
  | n when n = 10 + Array.length binops -> "vote"
  | n when n = 11 + Array.length binops -> "cmp"
  | n -> Printf.sprintf "op%d" n

(* ---------- string interning for stream / array names ---------- *)

module Dict = struct
  type t = { mutable names : string array; mutable n : int }

  let create () = { names = Array.make 8 ""; n = 0 }

  let intern t s =
    let rec find i = if i >= t.n then -1 else if t.names.(i) = s then i else find (i + 1) in
    let i = find 0 in
    if i >= 0 then i
    else begin
      if t.n = Array.length t.names then begin
        let bigger = Array.make (2 * t.n) "" in
        Array.blit t.names 0 bigger 0 t.n;
        t.names <- bigger
      end;
      t.names.(t.n) <- s;
      t.n <- t.n + 1;
      t.n - 1
    end
end

(* Build the slot for an operation: opcode + payload in the const field. *)
let slot_of_op dict op srcs =
  let const =
    match op with
    | Op.Const c -> c
    | Op.Input s | Op.Output s -> Dict.intern dict s
    | Op.Load a | Op.Store a -> Dict.intern dict a
    | _ -> 0
  in
  { opcode = opcode_of_op op; srcs; const; rf_we = false; rf_waddr = 0 }

(* ---------- bit-level encoding ----------

   field     bits   position
   opcode    6      0..5
   src0      6      6..11
   src1      6      12..17
   src2      6      18..23
   rf_we     1      24
   rf_waddr  4      25..28
   const     24     29..52  (two's complement)                       *)

let encode_source = function
  | Src_none -> 0
  | Src_self -> 1
  | Src_const -> 2
  | Src_dir d ->
      if d < 0 || d > 11 then invalid_arg "Context: direction index too large";
      3 + d
  | Src_rf r ->
      if r < 0 || r > 15 then invalid_arg "Context: rf index too large";
      15 + r

let encode_slot s =
  let ( ||| ) = Int64.logor in
  let field v shift = Int64.shift_left (Int64.of_int v) shift in
  let const_bits = s.const land 0xFFFFFF in
  field s.opcode 0
  ||| field (encode_source s.srcs.(0)) 6
  ||| field (encode_source s.srcs.(1)) 12
  ||| field (encode_source s.srcs.(2)) 18
  ||| field (if s.rf_we then 1 else 0) 24
  ||| field s.rf_waddr 25
  ||| field const_bits 29

let source_to_string = function
  | Src_none -> "-"
  | Src_self -> "SELF"
  | Src_const -> "CONST"
  | Src_dir d -> Printf.sprintf "IN%d" d
  | Src_rf r -> Printf.sprintf "RF[%d]" r

let pp_slot s =
  Printf.sprintf "op=%-6s srcA=%-6s srcB=%-6s srcC=%-6s rf_we=%d waddr=%d const=%d"
    (opcode_name s.opcode)
    (source_to_string s.srcs.(0))
    (source_to_string s.srcs.(1))
    (source_to_string s.srcs.(2))
    (if s.rf_we then 1 else 0)
    s.rf_waddr s.const

(* The context memory of the whole array for a modulo schedule of the
   given II: context.(cycle).(pe). *)
let pp_contexts (contexts : t array) cgra =
  let buf = Buffer.create 512 in
  Array.iteri
    (fun cycle ctx ->
      Buffer.add_string buf (Printf.sprintf "context %d:\n" cycle);
      Array.iteri
        (fun pe slot ->
          if slot.opcode <> 0 || slot.rf_we then begin
            let r, c = Cgra.coords cgra pe in
            Buffer.add_string buf (Printf.sprintf "  PE(%d,%d): %s\n" r c (pp_slot slot))
          end)
        ctx)
    contexts;
  Buffer.contents buf
