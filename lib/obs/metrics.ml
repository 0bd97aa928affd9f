(* Named atomic counters and gauges.

   The registry is an association list behind one atomic head; a cell,
   once inserted, is never moved, so [add] after the first hit is a
   single [Atomic.fetch_and_add] with no allocation.  Insertion races
   between domains are resolved by compare-and-set on the head: the
   loser rescans and finds the winner's cell, so a name maps to
   exactly one cell forever — which is what makes [dump] duplicate-free
   without locking.

   Each cell is tagged by the operation that created it: counters
   ([add]/[incr]) fold across forks by summation, while gauges keep
   maximum ([set_max]) semantics — so [merge] after a race fork must
   not sum them back (a max folded with [+] double-counts).  The tag
   is fixed at creation; mixing operations on one name keeps the first
   tag.

   Everything is an [int] on purpose: integer counters summed in any
   order are deterministic, so a metrics dump at [--jobs 1] with a
   fixed seed is byte-identical across runs (timings live in the
   trace, never here). *)

type kind = Counter | Gauge_max

type t = {
  enabled : bool;
  cells : (string * (kind * int Atomic.t)) list Atomic.t;
}

let off = { enabled = false; cells = Atomic.make [] }
let create () = { enabled = true; cells = Atomic.make [] }
let enabled t = t.enabled

let rec cell t kind name =
  let cells = Atomic.get t.cells in
  match List.assoc_opt name cells with
  | Some (_, c) -> c
  | None ->
      let c = Atomic.make 0 in
      if Atomic.compare_and_set t.cells cells ((name, (kind, c)) :: cells) then c
      else cell t kind name

let add t name n = if t.enabled && n <> 0 then ignore (Atomic.fetch_and_add (cell t Counter name) n)
let incr t name = add t name 1

let max_into c v =
  let rec go () =
    let cur = Atomic.get c in
    if v > cur && not (Atomic.compare_and_set c cur v) then go ()
  in
  go ()

let set_max t name v = if t.enabled then max_into (cell t Gauge_max name) v

let get t name =
  match List.assoc_opt name (Atomic.get t.cells) with
  | Some (_, c) -> Atomic.get c
  | None -> 0

let dump t =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (List.map (fun (name, (_, c)) -> (name, Atomic.get c)) (Atomic.get t.cells))

(* Kind-aware fold: counters sum, max-gauges max. *)
let merge ~into src =
  if into.enabled then
    List.iter
      (fun (name, (kind, c)) ->
        let v = Atomic.get c in
        match kind with
        | Counter -> if v <> 0 then ignore (Atomic.fetch_and_add (cell into Counter name) v)
        | Gauge_max -> max_into (cell into Gauge_max name) v)
      (Atomic.get src.cells)
