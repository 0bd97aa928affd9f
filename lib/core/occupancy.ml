(* Modulo resource occupancy: who uses each FU slot (pe, cycle mod II)
   and how many values sit in each register file per slot.

   This is the bookkeeping side of the MRRG, and the one ledger of it:
   constructive mappers claim resources as they bind and route, the
   negotiated router prices its congestion over the same cells, and
   repair freezes the survivors of a mapping in it.  RF pressure counts
   per slot model a rotating register file ([29]): a value alive L
   cycles costs one entry in each of the L successive slots (so
   ceil(L/II) physical registers), which makes per-slot counting
   exact. *)

open Ocgra_arch

type user = U_node of int | U_route of int | U_fault
(* DFG node id / DFG edge index / permanently dead resource *)

type t = {
  ii : int;
  npe : int;
  fu : user option array; (* cell -> user *)
  rf : int array; (* cell -> live value count *)
}

let cell t ~pe ~time = (pe * t.ii) + (((time mod t.ii) + t.ii) mod t.ii)

(* With [?cgra], every cell that is not [Mrrg.live] is pre-claimed by
   [U_fault], so constructive mappers and routers treat dead silicon
   as permanently busy. *)
let create ?cgra ~npe ~ii () =
  let t = { ii; npe; fu = Array.make (npe * ii) None; rf = Array.make (npe * ii) 0 } in
  Option.iter
    (fun cgra ->
      let mrrg = Mrrg.make cgra ~ii in
      for pe = 0 to npe - 1 do
        for time = 0 to ii - 1 do
          if not (Mrrg.live mrrg ~pe ~time) then t.fu.(cell t ~pe ~time) <- Some U_fault
        done
      done)
    cgra;
  t

let fu_user t ~pe ~time = t.fu.(cell t ~pe ~time)
let fu_free t ~pe ~time = fu_user t ~pe ~time = None

let claim_fu t ~pe ~time user =
  let i = cell t ~pe ~time in
  match t.fu.(i) with
  | None -> t.fu.(i) <- Some user
  | Some _ -> invalid_arg "Occupancy.claim_fu: slot already in use"

let release_fu t ~pe ~time = t.fu.(cell t ~pe ~time) <- None
let rf_count t ~pe ~time = t.rf.(cell t ~pe ~time)

(* A hold written at end of [from_] and read during [until] occupies
   one entry during every cycle in (from_, until]. *)
let add_hold t ~pe ~from_ ~until by =
  for cy = from_ + 1 to until do
    let i = cell t ~pe ~time:cy in
    t.rf.(i) <- t.rf.(i) + by
  done

let claim_hold t ~pe ~from_ ~until = add_hold t ~pe ~from_ ~until 1
let release_hold t ~pe ~from_ ~until = add_hold t ~pe ~from_ ~until (-1)

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

(* Claim step by step, and holds cycle by cycle: a route that wraps
   around the II can collide with itself, and a hold spanning >= II
   cycles lands several times on one slot, so a single up-front test
   would under-count its own load.  [undo] is what is claimed so far. *)
let try_claim_route cgra t edge_idx (route : Mapping.route) =
  let rec claim undo = function
    | [] -> true
    | (Mapping.Hop { pe; time } as hop) :: rest when fu_free t ~pe ~time ->
        claim_fu t ~pe ~time (U_route edge_idx);
        claim (hop :: undo) rest
    | Mapping.Hold { from_; until; _ } :: rest when from_ >= until -> claim undo rest
    | Mapping.Hold { pe; from_; until } :: rest
      when rf_count t ~pe ~time:(from_ + 1) < Cgra.effective_rf_size cgra pe ->
        let cycle = Mapping.Hold { pe; from_; until = from_ + 1 } in
        claim_hold t ~pe ~from_ ~until:(from_ + 1);
        claim (cycle :: undo) (Mapping.Hold { pe; from_ = from_ + 1; until } :: rest)
    | _ ->
        release_route t undo;
        false
  in
  claim [] route

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

(* Dead silicon plus every binding, each on a live, capable PE at a
   non-negative cycle and alone on its FU slot; [None] otherwise. *)
let of_binding (p : Problem.t) ~ii binding =
  let npe = Cgra.pe_count p.cgra in
  let t = create ~cgra:p.cgra ~npe ~ii () in
  let claim v (pe, time) =
    pe >= 0 && pe < npe && time >= 0
    && Cgra.supports p.cgra pe (Ocgra_dfg.Dfg.op p.dfg v)
    && fu_free t ~pe ~time
    &&
    (claim_fu t ~pe ~time (U_node v);
     true)
  in
  let rec all v = v = Array.length binding || (claim v binding.(v) && all (v + 1)) in
  if all 0 then Some t else None
