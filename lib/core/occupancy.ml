(* Modulo resource occupancy: who uses each FU slot (pe, cycle mod II)
   and how many values sit in each register file per slot.

   This is the bookkeeping side of the MRRG: constructive mappers claim
   resources as they bind and route, and ask the router for paths that
   avoid (or negotiate with) claimed resources.  RF pressure counts per
   slot model a rotating register file ([29]): a value alive L cycles
   costs one entry in each of the L successive slots (so ceil(L/II)
   physical registers), which makes per-slot counting exact. *)

type user = U_node of int | U_route of int | U_fault
(* DFG node id / DFG edge index / permanently dead resource *)

type t = {
  ii : int;
  npe : int;
  fu : user option array; (* (pe * ii + slot) -> user *)
  rf : int array; (* (pe * ii + slot) -> live value count *)
}

(* With [?cgra], every dead FU slot is pre-claimed by [U_fault], so
   constructive mappers and routers treat dead silicon as permanently
   busy. *)
let create ?cgra ~npe ~ii () =
  let t = { ii; npe; fu = Array.make (npe * ii) None; rf = Array.make (npe * ii) 0 } in
  Option.iter
    (fun cgra ->
      for pe = 0 to npe - 1 do
        if not (Ocgra_arch.Cgra.pe_ok cgra pe) then
          for s = 0 to ii - 1 do
            t.fu.((pe * ii) + s) <- Some U_fault
          done
        else
          List.iter
            (fun s -> if s < ii then t.fu.((pe * ii) + s) <- Some U_fault)
            (Ocgra_arch.Cgra.dead_slots cgra ~pe)
      done)
    cgra;
  t

let slot_index t pe time = (pe * t.ii) + (((time mod t.ii) + t.ii) mod t.ii)

let fu_user t ~pe ~time = t.fu.(slot_index t pe time)
let fu_free t ~pe ~time = fu_user t ~pe ~time = None

let claim_fu t ~pe ~time user =
  let i = slot_index t pe time in
  match t.fu.(i) with
  | None -> t.fu.(i) <- Some user
  | Some _ -> invalid_arg "Occupancy.claim_fu: slot already in use"

let release_fu t ~pe ~time =
  let i = slot_index t pe time in
  t.fu.(i) <- None

let rf_count t ~pe ~time = t.rf.(slot_index t pe time)

(* A hold written at end of [from_] and read during [until] occupies
   one entry during every cycle in (from_, until]. *)
let hold_span ~from_ ~until = List.init (until - from_) (fun i -> from_ + 1 + i)

let claim_hold t ~pe ~from_ ~until =
  List.iter
    (fun cy ->
      let i = slot_index t pe cy in
      t.rf.(i) <- t.rf.(i) + 1)
    (hold_span ~from_ ~until)

let release_hold t ~pe ~from_ ~until =
  List.iter
    (fun cy ->
      let i = slot_index t pe cy in
      t.rf.(i) <- t.rf.(i) - 1)
    (hold_span ~from_ ~until)

let claim_route t edge_idx (route : Mapping.route) =
  List.iter
    (function
      | Mapping.Hop { pe; time } -> claim_fu t ~pe ~time (U_route edge_idx)
      | Mapping.Hold { pe; from_; until } -> claim_hold t ~pe ~from_ ~until)
    route

let release_route t (route : Mapping.route) =
  List.iter
    (function
      | Mapping.Hop { pe; time } -> release_fu t ~pe ~time
      | Mapping.Hold { pe; from_; until } -> release_hold t ~pe ~from_ ~until)
    route

(* Freeze the surviving pieces of an existing mapping: claim every
   binding except the [skip_nodes] ones and every route whose edge
   passes [keep_edge].  This is how an incremental caller (Repair, a
   remap cache) pins what it intends to keep before asking the router
   to negotiate only the rest; raises like [claim_fu] if the kept
   pieces overlap. *)
let claim_frozen t ?(skip_nodes = fun _ -> false) ?(keep_edge = fun _ -> true)
    ~binding ~(routes : Mapping.route array) () =
  Array.iteri
    (fun v (pe, time) -> if not (skip_nodes v) then claim_fu t ~pe ~time (U_node v))
    binding;
  Array.iteri (fun e route -> if keep_edge e then claim_route t e route) routes
