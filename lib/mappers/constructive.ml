(* Constructive modulo scheduling with greedy placement and routing —
   the workhorse heuristic in the lineage of iterative modulo
   scheduling and DRESC-style CGRA compilation: nodes are placed in
   priority order at the earliest feasible (PE, cycle), dependences are
   routed immediately, and the whole attempt restarts with a different
   random tie-breaking when it dead-ends.  The II loop starts at the
   MII lower bound, so a success at MII is provably optimal. *)

open Ocgra_dfg
open Ocgra_core
module Rng = Ocgra_util.Rng

(* The RNG-free part of [topo_order_by_height]: a topological order,
   operation heights (longest path to a sink over dist-0 edges, the
   classic list-scheduling priority) and ASAP levels. *)
type levels = { topo : int list; height : int array; asap : int array }

let levels dfg =
  let g = Dfg.to_digraph dfg in
  let topo = Ocgra_graph.Topo.sort_exn g in
  { topo; height = Ocgra_graph.Topo.longest_to_sinks g; asap = Dfg.asap dfg }

(* stable-sort a topological order by decreasing height while keeping
   it topological: process by levels; inside a level, height
   descending, random ties *)
let order_by_height rng lv =
  let tiebreak = Array.init (Array.length lv.asap) (fun _ -> Rng.int rng 1000) in
  List.stable_sort
    (fun a b ->
      match compare lv.asap.(a) lv.asap.(b) with
      | 0 -> (
          match compare lv.height.(b) lv.height.(a) with
          | 0 -> compare tiebreak.(a) tiebreak.(b)
          | c -> c)
      | c -> c)
    lv.topo

let topo_order_by_height rng dfg = order_by_height rng (levels dfg)

(* Sum of hop distances from [pe] to every placed neighbour of [v],
   or [None] when none is placed yet. *)
let proximity (state : Place_route.t) hop_table v pe =
  let rec sum total placed = function
    | [] -> if placed > 0 then Some total else None
    | i :: rest ->
        let e = state.edges.(i) in
        let other = if e.src = v then e.dst else e.src in
        if other <> v && Place_route.is_placed state other then begin
          let po, _ = Place_route.binding_of state other in
          let h = if e.src = v then hop_table.(pe).(po) else hop_table.(po).(pe) in
          if h < Ocgra_arch.Cgra.unreachable then sum (total + h) (placed + 1) rest
          else sum total placed rest
        end
        else sum total placed rest
  in
  sum 0 0 state.incident.(v)

(* Candidate (cycle, priority, draw, pe) tuples packed into one int
   whose order is their lexicographic order: each field gets enough
   bits for its largest value.  A draw is below 16; a priority is at
   most 2 * (hop sum) + 1, a hop sum at most (pe count - 1) per edge,
   and with no placed neighbour it is below 64. *)
type keys = { pe_bits : int; prox_shift : int; t_shift : int }

let bits_for n =
  let rec go b = if n lsr b = 0 then b else go (b + 1) in
  go 0

let keys (p : Problem.t) =
  let npe = Ocgra_arch.Cgra.pe_count p.cgra in
  let pe_bits = bits_for (npe - 1) in
  let prox_bits = bits_for (max 63 ((2 * (npe - 1) * Dfg.edge_count p.dfg) + 1)) in
  let t_shift = pe_bits + 4 + prox_bits in
  if t_shift + bits_for (Problem.max_time p) > 62 then
    invalid_arg "Constructive: candidate keys do not fit in an int";
  { pe_bits; prox_shift = pe_bits + 4; t_shift }

let pack k ~t ~prox ~draw ~pe =
  (t lsl k.t_shift) lor (prox lsl k.prox_shift) lor (draw lsl k.pe_bits) lor pe

(* Binary min-heap over [h.(0) .. h.(n - 1)]: a node's candidates are
   tried cheapest first until one places, and most nodes place within
   the first few, so popping beats sorting them all. *)
let rec sift_down (h : int array) n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
    if h.(c) < h.(i) then begin
      let x = h.(i) in
      h.(i) <- h.(c);
      h.(c) <- x;
      sift_down h n c
    end
  end

let heapify h n =
  for i = (n / 2) - 1 downto 0 do
    sift_down h n i
  done

(* What every attempt of one [map] shares: none of it depends on the
   II, the occupancy or the RNG. *)
type plan = {
  levels : levels;
  capable : int list array; (* node -> capable PEs *)
  hop_table : int array array;
  keys : keys;
  buf : int array; (* one node's candidate keys *)
}

let plan (p : Problem.t) ~time_slack =
  let cgra = p.cgra in
  {
    levels = levels p.dfg;
    capable =
      Array.init (Dfg.node_count p.dfg) (fun v -> Ocgra_arch.Cgra.capable_pes cgra (Dfg.op p.dfg v));
    hop_table = Ocgra_arch.Cgra.hop_table cgra;
    keys = keys p;
    buf = Array.make (Ocgra_arch.Cgra.pe_count cgra * (max 0 time_slack + 1)) 0;
  }

(* Work counts of one [map], added to the metrics once at its end. *)
type tally = { mutable candidates : int; mutable placements : int; mutable searches : int }

(* One placement attempt at a fixed II. *)
let attempt (p : Problem.t) plan tally rng ~ii ~time_slack =
  let state = Place_route.create p ~ii in
  let k = plan.keys and buf = plan.buf in
  let pe_mask = (1 lsl k.pe_bits) - 1 in
  let order = order_by_height rng plan.levels in
  (* candidates are tried cheapest first; on success [v] is placed *)
  let rec try_best v n =
    n > 0
    &&
    let key = buf.(0) in
    buf.(0) <- buf.(n - 1);
    sift_down buf (n - 1) 0;
    Place_route.place state v ~pe:(key land pe_mask) ~time:(key lsr k.t_shift)
    || try_best v (n - 1)
  in
  let ok =
    List.for_all
      (fun v ->
        (* candidate (pe, t) pairs ordered by time, then proximity to the
           placed neighbours, then a random tie-break to diversify
           restarts; a node with no placed neighbour yet (an input, a
           constant) gets a random priority in 0..63 instead, so
           restarts explore different geometries *)
        let n = ref 0 in
        List.iter
          (fun pe ->
            let est, lst = Place_route.time_window state plan.hop_table v pe in
            if est <= lst then begin
              let prox =
                match proximity state plan.hop_table v pe with
                | Some p -> (2 * p) + Rng.int rng 2
                | None -> Rng.int rng 64
              in
              for t = est to min lst (est + time_slack) do
                buf.(!n) <- pack k ~t ~prox ~draw:(Rng.int rng 16) ~pe;
                incr n
              done
            end)
          plan.capable.(v);
        tally.candidates <- tally.candidates + !n;
        heapify buf !n;
        let placed = try_best v !n in
        if placed then tally.placements <- tally.placements + 1;
        placed)
      order
  in
  tally.searches <- tally.searches + state.searches;
  if ok then Place_route.to_mapping state else None

(* Map at the smallest feasible II with random restarts.  The deadline
   is polled between attempts (each attempt is short), so an expired
   budget surfaces as a clean failure. *)
let map ?(restarts = 8) ?(time_slack = 6) ?(deadline = Deadline.none)
    ?(obs = Ocgra_obs.Ctx.off) (p : Problem.t) rng =
  let attempts = ref 0 in
  (* built by the first attempt, so a map that makes none builds none *)
  let plan = lazy (plan p ~time_slack) in
  let tally = { candidates = 0; placements = 0; searches = 0 } in
  let restart ~ii =
    Mapper.tries restarts deadline (fun _ ->
        incr attempts;
        Mapper.mapped_or_gave_up (attempt p (Lazy.force plan) tally rng ~ii ~time_slack))
  in
  let m, at_mii =
    match p.kind with
    | Problem.Spatial -> (restart ~ii:1, true)
    | Problem.Temporal { max_ii; _ } ->
        let s =
          Mapper.sweep ~max_ii deadline p (fun ii -> Mapper.mapped_or_gave_up (restart ~ii))
        in
        (s.found, s.proven)
  in
  Ocgra_obs.Ctx.add obs "constructive.attempts" !attempts;
  Ocgra_obs.Ctx.add obs "constructive.candidates" tally.candidates;
  Ocgra_obs.Ctx.add obs "constructive.placements" tally.placements;
  Ocgra_obs.Ctx.add obs "route.searches" tally.searches;
  (m, !attempts, at_mii)
