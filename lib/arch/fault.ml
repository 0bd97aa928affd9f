(* Resource fault model for degraded arrays.

   A fault names one physical resource of the CGRA that manufacturing
   defects, ageing, or soft-error screening has taken out of service.
   Mapping onto the degraded array means no binding or route may touch
   a faulted resource; the fault set travels with the [Cgra.t] so every
   mapper, the validator and the simulator see the same degradation. *)

type t =
  | Pe_down of int  (** the whole cell is unusable *)
  | Link_down of int * int  (** the directed link src -> dst is unusable *)
  | Fu_slot_dead of int * int
      (** (pe, slot): config-memory slot [slot] of the PE is dead — the
          FU may not fire (and no value may hop through it) at any cycle
          [t] with [t mod ii = slot], for mappings with [ii > slot]. *)
  | Rf_reduced of int * int
      (** (pe, lost): [lost] registers of the PE's local file are dead;
          the effective capacity is reduced accordingly (clamped at 0). *)

let compare = Stdlib.compare
let equal a b = compare a b = 0

let to_string = function
  | Pe_down pe -> Printf.sprintf "pe-down %d" pe
  | Link_down (src, dst) -> Printf.sprintf "link-down %d->%d" src dst
  | Fu_slot_dead (pe, slot) -> Printf.sprintf "fu-slot-dead pe %d slot %d" pe slot
  | Rf_reduced (pe, lost) -> Printf.sprintf "rf-reduced pe %d by %d" pe lost

(* The canonical form of a fault mask: duplicates dropped, constructor
   then coordinate order.  Every mask that reaches a [Cgra.t] (and every
   rendering) goes through this, so two masks built from differently
   ordered or repeated injections are structurally equal, render the
   same text, and hash the same — a cache or journal keyed on the mask
   never sees two names for one degradation. *)
let canonical faults = List.sort_uniq compare faults

let list_to_string faults =
  match canonical faults with
  | [] -> "none"
  | faults -> String.concat ", " (List.map to_string faults)

(* Mask inclusion over canonical forms — one merge-style walk, so the
   mapping cache's hit/repair/miss decision never depends on the order
   faults were injected in. *)
let subset a b =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' ->
        let c = compare x y in
        if c = 0 then go a' b' else if c > 0 then go a b' else false
  in
  go (canonical a) (canonical b)

(* ---------- transient events ----------

   Where the permanent faults above describe silicon that is *gone*,
   a transient names one soft-error event that strikes *during* a run:
   a particle flips a datapath bit, a wire glitches for one cycle, or
   the configuration memory itself is upset.  Transients are not
   carried on the [Cgra.t] (the array is physically healthy); they are
   handed to the simulator's fault-injecting mode, which applies them
   mid-run.  Both models coexist: a degraded array can additionally be
   bombarded with transients. *)

type transient =
  | Bit_flip of { pe : int; cycle : int; bit : int }
      (** the output register of [pe], written at the end of [cycle],
          has [bit] inverted — pure data corruption, no control or
          timing effect, hence silent unless a comparator, a voter or
          the output check sees the difference *)
  | Link_drop of { src : int; dst : int; cycle : int }
      (** the value crossing the directed wire src -> dst during
          [cycle] is lost; the consumer latches garbage (modelled as 0)
          in its place *)
  | Config_upset of { pe : int; cycle : int; bit : int }
      (** from [cycle] on, [bit] of the configuration word in the slot
          that fires at [cycle] is inverted.  Config memory holds
          state, so unlike the other two the upset *persists* for the
          rest of the run: the slot decodes a wrong operand mux, which
          the simulator's tag checking then catches (or, for
          operand-less ops, a wrong immediate, which is silent). *)

(* Seeded Monte-Carlo event generator.  Each (pe, cycle) pair is an
   independent Bernoulli trial at probability [rate] — the classic
   per-bit-per-cycle SEU model collapsed to one draw per register.  A
   struck pair then draws the event kind: mostly datapath flips, some
   wire glitches, occasionally a config upset (the relative weights
   follow the usual SEU folklore that logic/datapath upsets outnumber
   config-array hits per bit of exposed state).  [links] is the
   physical directed adjacency; with no wires, glitches fall back to
   bit flips.  Deterministic in [seed]: same seed, same bombardment. *)
let monte_carlo ~pe_count ~links ~horizon ~rate ~seed =
  if pe_count <= 0 then invalid_arg "Fault.monte_carlo: pe_count";
  if rate < 0.0 || rate > 1.0 then invalid_arg "Fault.monte_carlo: rate not in [0,1]";
  let rng = Ocgra_util.Rng.create seed in
  let links = Array.of_list links in
  let events = ref [] in
  for cycle = 0 to horizon - 1 do
    for pe = 0 to pe_count - 1 do
      if Ocgra_util.Rng.float rng 1.0 < rate then begin
        let kind = Ocgra_util.Rng.int rng 100 in
        let ev =
          if kind < 55 || (kind < 85 && Array.length links = 0) then
            Bit_flip { pe; cycle; bit = Ocgra_util.Rng.int rng 24 }
          else if kind < 85 then begin
            let src, dst = Ocgra_util.Rng.choose rng links in
            Link_drop { src; dst; cycle }
          end
          else Config_upset { pe; cycle; bit = Ocgra_util.Rng.int rng 24 }
        in
        events := ev :: !events
      end
    done
  done;
  List.rev !events
