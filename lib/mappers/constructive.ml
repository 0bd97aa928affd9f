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
  keys : keys;
  near : Place_route.near; (* the placed neighbours of the node at hand *)
  heap : int array; (* one candidate key per PE, at most *)
  (* per PE, for the node at hand: its first and last candidate cycle,
     its priority and the index of its first cycle's draw *)
  first_t : int array;
  last_t : int array;
  prox : int array;
  draw0 : int array;
  ws : Route.workspace; (* the searches of [Place_route.place] *)
  reach_ws : Route.workspace array; (* one per in-edge of a node, for its fields *)
}

let plan (p : Problem.t) =
  let cgra = p.cgra in
  let npe = Ocgra_arch.Cgra.pe_count cgra in
  let in_degree = Array.make (Dfg.node_count p.dfg) 0 in
  Dfg.iter_edges
    (fun e -> if e.src <> e.dst then in_degree.(e.dst) <- in_degree.(e.dst) + 1)
    p.dfg;
  {
    levels = levels p.dfg;
    capable =
      Array.init (Dfg.node_count p.dfg) (fun v -> Ocgra_arch.Cgra.capable_pes cgra (Dfg.op p.dfg v));
    keys = keys p;
    near = Place_route.near p;
    heap = Array.make npe 0;
    first_t = Array.make npe 0;
    last_t = Array.make npe 0;
    prox = Array.make npe 0;
    draw0 = Array.make npe 0;
    ws = Route.workspace cgra;
    reach_ws =
      Array.init (Array.fold_left max 0 in_degree) (fun _ -> Route.workspace cgra);
  }

(* Work counts of one [map], added to the metrics once at its end. *)
type tally = {
  mutable candidates : int;
  mutable placements : int;
  mutable searches : int;
  mutable pruned : int;
}

(* One placement attempt at a fixed II.

   A node's candidates are its (pe, t) pairs, t in each capable PE's
   window [est, min lst (est + time_slack)], ordered by (t, priority,
   draw, pe): a PE's priority is twice its hop sum to the placed
   neighbours plus a random bit (a random 0..63 when none is placed,
   so restarts explore different geometries), and each candidate has a
   random 0..15 tie-break to diversify restarts.  The draws are made in
   PE order, each PE's priority then its cycles in order, so PE [pe]'s
   cycle [t] draws at index [draw0.(pe) + t - first_t.(pe)] of the
   node's stream.  Rather than build and heap every candidate, the
   attempt reads those draws ahead ([Rng.int_ahead]) and merges the
   PEs' streams: the heap holds each PE's cheapest untried candidate,
   and a pop pushes that PE's next cycle.  Keys are unique (the PE is
   their low field) and rise with t within a PE (t is their top field),
   so this pops the very sequence a heap of all the candidates would.
   After the node, placed or not, the RNG skips every draw the node's
   candidates own, so the next node draws as it would have. *)
let attempt (p : Problem.t) plan tally rng ~ii ~time_slack =
  let state = Place_route.create ~ws:plan.ws p ~ii in
  let k = plan.keys and heap = plan.heap and near = plan.near in
  let pe_mask = (1 lsl k.pe_bits) - 1 in
  let order = order_by_height rng plan.levels in
  (* Candidates are tried cheapest first; on success [v] is placed;
     [left] counts the candidates not yet popped, [n] the heap.  Most
     nodes place on their first candidate, so the reachability fields
     of [v]'s in-edges are built only once a candidate with a free slot
     has failed to route ([latest] bounds the cycles still to try).
     From then on a candidate the fields rule out is dropped without a
     search: [place] would fail on it, and a failed [place] leaves the
     occupancy the fields were built on. *)
  let rec try_best v n left ~latest reach =
    left > 0
    &&
    let key = heap.(0) in
    let pe = key land pe_mask and time = key lsr k.t_shift in
    let n =
      if time < plan.last_t.(pe) then begin
        let draw = Rng.int_ahead rng (plan.draw0.(pe) + time + 1 - plan.first_t.(pe)) 16 in
        heap.(0) <- pack k ~t:(time + 1) ~prox:plan.prox.(pe) ~draw ~pe;
        n
      end
      else begin
        heap.(0) <- heap.(n - 1);
        n - 1
      end
    in
    sift_down heap n 0;
    let free = Occupancy.fu_free state.occ ~pe ~time in
    match reach with
    | Some r when free && not (Place_route.reachable r ~pe ~time) ->
        tally.pruned <- tally.pruned + 1;
        try_best v n (left - 1) ~latest reach
    | _ ->
        Place_route.place state v ~pe ~time
        ||
        let reach =
          if Option.is_none reach && free && left > 1 then
            Some (Place_route.reach state plan.reach_ws v ~latest)
          else reach
        in
        try_best v n (left - 1) ~latest reach
  in
  let ok =
    List.for_all
      (fun v ->
        Place_route.gather state near v;
        let n = ref 0 and draws = ref 0 and latest = ref 0 in
        List.iter
          (fun pe ->
            let est = Place_route.est near pe and lst = Place_route.lst near pe in
            if est <= lst then begin
              let prox =
                match Place_route.proximity near pe with
                | -1 -> Rng.int_ahead rng !draws 64
                | h -> (2 * h) + Rng.int_ahead rng !draws 2
              in
              let last = min lst (est + time_slack) in
              plan.first_t.(pe) <- est;
              plan.last_t.(pe) <- last;
              plan.prox.(pe) <- prox;
              plan.draw0.(pe) <- !draws + 1;
              heap.(!n) <- pack k ~t:est ~prox ~draw:(Rng.int_ahead rng (!draws + 1) 16) ~pe;
              incr n;
              draws := !draws + 1 + (last - est + 1);
              latest := max !latest last
            end)
          plan.capable.(v);
        (* every draw but one per open PE is a candidate's *)
        let candidates = !draws - !n in
        tally.candidates <- tally.candidates + candidates;
        heapify heap !n;
        let placed = try_best v !n candidates ~latest:!latest None in
        Rng.skip rng !draws;
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
  let plan = lazy (plan p) in
  let tally = { candidates = 0; placements = 0; searches = 0; pruned = 0 } in
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
  Ocgra_obs.Ctx.add obs "constructive.pruned" tally.pruned;
  Ocgra_obs.Ctx.add obs "route.searches" tally.searches;
  (m, !attempts, at_mii)
