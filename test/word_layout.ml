(* Reference decoder for the 53-bit configuration word documented in
   context.mli.  Only the tests decode words: they check that
   [Context.encode_slot] packs every field where the layout says. *)

module Context = Ocgra_arch.Context

let decode_source = function
  | 0 -> Context.Src_none
  | 1 -> Context.Src_self
  | 2 -> Context.Src_const
  | n when n >= 3 && n < 15 -> Context.Src_dir (n - 3)
  | n when n >= 15 && n < 31 -> Context.Src_rf (n - 15)
  | n -> invalid_arg (Printf.sprintf "Word_layout.decode_source: %d" n)

let decode_slot w =
  let bits shift width =
    Int64.to_int (Int64.logand (Int64.shift_right_logical w shift) (Int64.sub (Int64.shift_left 1L width) 1L))
  in
  let const = bits 29 24 in
  {
    Context.opcode = bits 0 6;
    srcs = [| decode_source (bits 6 6); decode_source (bits 12 6); decode_source (bits 18 6) |];
    const = (if const land 0x800000 <> 0 then const - 0x1000000 else const);
    rf_we = bits 24 1 = 1;
    rf_waddr = bits 25 4;
  }
