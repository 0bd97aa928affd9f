(* Multi-bank data memory model (Section III.C: "number of banks,
   communication bandwidth, and memory size" [50], [65]-[68]).

   The CGRA's load/store units reach a scratchpad split into [banks]
   single-ported banks; two accesses in the same cycle to the same bank
   stall one cycle each (sequentialised).  Banks are low-order
   interleaved: address [a] lives in bank [a mod banks]. *)

(* Conflicts of one cycle's accesses: number of extra stall cycles. *)
let cycle_conflicts banks addrs =
  let per_bank = Array.make banks 0 in
  List.iter (fun a -> per_bank.(a mod banks) <- per_bank.(a mod banks) + 1) addrs;
  Array.fold_left (fun acc c -> acc + max 0 (c - 1)) 0 per_bank

(* The access trace of a mapped kernel: for each cycle slot of the
   steady state, the addresses touched by loads/stores scheduled in
   that slot, for a run of [iters] iterations with the given affine
   access functions (array base + stride * iteration). *)
type access = { array_base : int; stride : int; offset : int }

let steady_state_trace ~ii ~iters (accesses : (int * access) list) =
  (* (slot, access) list -> per-cycle address lists *)
  List.init iters (fun iter ->
      List.init ii (fun slot ->
          List.filter_map
            (fun (s, a) ->
              if s = slot then Some (a.array_base + (a.stride * iter) + a.offset) else None)
            accesses))
  |> List.concat

(* Sweep bank counts for a trace shape; the banking ablation. *)
let conflicts_by_banks ~bank_counts ~ii ~iters accesses =
  let trace = steady_state_trace ~ii ~iters accesses in
  List.map
    (fun banks ->
      if banks < 1 then invalid_arg "Bank.conflicts_by_banks: need at least one bank";
      (banks, List.fold_left (fun acc addrs -> acc + cycle_conflicts banks addrs) 0 trace))
    bank_counts
