(* The CGRA instance: a rows x cols array of PEs joined by a topology.

   This is the "CGRA model" every mapper takes as input (Section II.B
   of the paper): capability queries, neighbour sets and hop-distance
   tables are the only interface the mapping algorithms use, so any
   array describable here is mappable by all of them. *)

open Ocgra_dfg

(* A name as given, or a family whose name also says the size and
   topology; spelled out only when asked for, so building an array
   formats no string. *)
type label = Named of string | Sized of string

type t = {
  rows : int;
  cols : int;
  topology : Topology.t;
  pes : Pe.t array; (* length rows * cols, row-major *)
  label : label;
  faults : Fault.t list; (* resources out of service; [] = healthy *)
  reach : int list array;
      (* pe -> [reachable_in_one], derived from the fields above; its
         tail is [neighbours] *)
  feeders : int list array; (* pe -> [feeders], derived alongside [reach] *)
}

(* The fault scans below are direct recursions, not [List.exists] over
   a closure: the router's cost model asks them per priced resource,
   and a closure capturing [i] is an allocation per call. *)
let rec pe_up faults i =
  match faults with
  | [] -> true
  | Fault.Pe_down j :: _ when j = i -> false
  | _ :: rest -> pe_up rest i

let rec link_up faults i j =
  match faults with
  | [] -> true
  | Fault.Link_down (a, b) :: _ when a = i && b = j -> false
  | _ :: rest -> link_up rest i j

(* Fault-masked adjacency: the wires a mapping may actually use.  A
   downed endpoint removes all its links, so hop tables, routing and
   validation all avoid faulted resources natively.  Built once per
   array (by [make] and [with_faults]), as the PE itself followed by
   its neighbours (nothing for a downed PE): the router reads both
   lists in its innermost loop.

   The feeder lists read the relation the other way: [d], then each
   physical neighbour with a live link into [d].  Every topology is
   symmetric, so a fault-free array shares [reach]; a one-way
   [Link_down] breaks the symmetry, so faulted ones ask each
   neighbour's own list. *)
let with_adjacency t =
  let rows = t.rows and cols = t.cols in
  let reach = Array.make (rows * cols) [] in
  for row = 0 to rows - 1 do
    for col = 0 to cols - 1 do
      let i = (row * cols) + col in
      let raw = Topology.neighbours_at t.topology ~rows ~cols ~row ~col in
      reach.(i) <-
        (match t.faults with
        | [] -> i :: raw
        | faults ->
            if not (pe_up faults i) then []
            else i :: List.filter (fun j -> pe_up faults j && link_up faults i j) raw)
    done
  done;
  let feeders =
    match t.faults with
    | [] -> reach
    | _ ->
        Array.init (rows * cols) (fun d ->
            let into q = match reach.(q) with [] -> false | _ :: ns -> List.mem d ns in
            d :: List.filter into (Topology.neighbours t.topology ~rows ~cols d))
  in
  { t with reach; feeders }

(* An array with the faults [faults] picks from it while still
   healthy, its adjacency built once, for those faults.  Before
   [with_adjacency] the record answers only what does not read the
   adjacency: its PEs and physical wires. *)
let build ~label ?faults ~rows ~cols ~topology pes =
  let healthy = { rows; cols; topology; pes; label; faults = []; reach = [||]; feeders = [||] } in
  match faults with
  | None -> with_adjacency healthy
  | Some pick -> with_adjacency { healthy with faults = Fault.canonical (pick healthy) }

(* A healthy array; [pes] holds rows * cols PEs, row-major. *)
let make ?(name = "cgra") ~rows ~cols ~topology pes = build ~label:(Named name) ~rows ~cols ~topology pes

let pe_count t = t.rows * t.cols

let name t =
  match t.label with
  | Named name -> name
  | Sized family ->
      Printf.sprintf "%s-%dx%d-%s" family t.rows t.cols (Topology.to_string t.topology)

let pe t i = t.pes.(i)
let coords t i = (i / t.cols, i mod t.cols)
let index t ~row ~col = (row * t.cols) + col

(* ---------- Fault queries ---------- *)

let faults t = t.faults
let with_faults t faults = with_adjacency { t with faults = Fault.canonical faults }
let pe_ok t i = pe_up t.faults i
let link_ok t i j = link_up t.faults i j

(* Slot [s] of the modulo config memory: dead slots only bite mappings
   whose II exceeds the slot index. *)
let slot_ok t ~pe ~ii ~time =
  let s = ((time mod ii) + ii) mod ii in
  not (List.exists (function Fault.Fu_slot_dead (q, d) -> q = pe && d = s | _ -> false) t.faults)

let dead_slots t ~pe =
  List.filter_map
    (function Fault.Fu_slot_dead (q, s) when q = pe -> Some s | _ -> None)
    t.faults

let rec rf_lost faults i acc =
  match faults with
  | [] -> acc
  | Fault.Rf_reduced (j, k) :: rest when j = i -> rf_lost rest i (acc + k)
  | _ :: rest -> rf_lost rest i acc

let effective_rf_size t i =
  if not (pe_ok t i) then 0 else max 0 (t.pes.(i).Pe.rf_size - rf_lost t.faults i 0)

(* Topology adjacency before fault masking: the physical wires. *)
let raw_neighbours t i = Topology.neighbours t.topology ~rows:t.rows ~cols:t.cols i

let neighbours t i = match t.reach.(i) with [] -> [] | _ :: ns -> ns

(* PEs a value on [i] can reach in one cycle, including staying put. *)
let reachable_in_one t i = t.reach.(i)

let feeders t d = t.feeders.(d)

let supports t i op = pe_ok t i && Pe.supports t.pes.(i) op

(* Seeded random fault generator: draws up to [n] distinct faults
   (fewer only when the array runs out of distinct resources).  Pure in
   [seed], so degraded-array experiments are reproducible. *)
let inject_faults t ~seed ~n =
  let rng = Ocgra_util.Rng.create (0x0FA17 lxor seed) in
  let npe = pe_count t in
  let picked = ref [] in
  let attempts = ref 0 in
  let max_attempts = (32 * max 1 n) + 64 in
  while List.length !picked < n && !attempts < max_attempts do
    incr attempts;
    let pe = Ocgra_util.Rng.int rng npe in
    let candidate =
      match Ocgra_util.Rng.int rng 4 with
      | 0 -> Some (Fault.Pe_down pe)
      | 1 -> (
          match raw_neighbours t pe with
          | [] -> None
          | ns -> Some (Fault.Link_down (pe, Ocgra_util.Rng.choose_list rng ns)))
      | 2 -> Some (Fault.Fu_slot_dead (pe, Ocgra_util.Rng.int rng 4))
      | _ ->
          let rf = t.pes.(pe).Pe.rf_size in
          if rf <= 0 then None
          else Some (Fault.Rf_reduced (pe, 1 + Ocgra_util.Rng.int rng rf))
    in
    match candidate with
    | Some f when not (List.exists (Fault.equal f) !picked) -> picked := f :: !picked
    | _ -> ()
  done;
  List.rev !picked

(* All directed physical wires, for the transient-event generator. *)
let raw_links t =
  List.concat_map
    (fun i -> List.map (fun j -> (i, j)) (raw_neighbours t i))
    (List.init (pe_count t) Fun.id)

(* Seeded Monte-Carlo transient bombardment over [horizon] cycles of
   this array; the arch-level convenience over [Fault.monte_carlo]. *)
let inject_transients t ~seed ~horizon ~rate =
  Fault.monte_carlo ~pe_count:(pe_count t) ~links:(raw_links t) ~horizon ~rate
    ~seed:(0x7A4E lxor seed)

let capable_pes t op =
  List.filter (fun i -> supports t i op) (List.init (pe_count t) Fun.id)

let connectivity_graph t =
  let g = Ocgra_graph.Digraph.create ~capacity:(pe_count t) () in
  ignore (Ocgra_graph.Digraph.add_nodes g (pe_count t));
  for i = 0 to pe_count t - 1 do
    List.iter (fun j -> Ocgra_graph.Digraph.add_edge g i j) (neighbours t i)
  done;
  g

let unreachable = max_int

(* hops.(i).(j) = minimum number of cycles to move a value from PE i to
   PE j (0 on the diagonal): a breadth-first search from every PE over
   the stored [neighbours]. *)
let hop_table t =
  let n = pe_count t in
  let queue = Array.make n 0 in
  Array.init n (fun src ->
      let dist = Array.make n unreachable in
      dist.(src) <- 0;
      queue.(0) <- src;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let v = queue.(!head) in
        incr head;
        List.iter
          (fun w ->
            if dist.(w) = unreachable then begin
              dist.(w) <- dist.(v) + 1;
              queue.(!tail) <- w;
              incr tail
            end)
          (neighbours t v)
      done;
      dist)

(* ---------- Symmetry ---------- *)

(* The grid's dihedral maps (all 8 on a square array, the 4 that keep
   the shape on a rectangular one) as PE permutations, identity first
   and without repeats (a 1xN or 1x1 array has fewer distinct maps).
   A map is kept only when it carries the fault-masked, capability-
   labelled array onto itself: the directed [neighbours] relation,
   each PE's [Pe.t], health, dead-slot set and effective RF size.
   Since every kept map keeps each PE's dead slots, it preserves
   [slot_ok] at every II.  The kept maps form a group: each one fixes
   the whole structure, so compositions and inverses do too. *)
let automorphisms t =
  let rows = t.rows and cols = t.cols in
  let dihedral =
    [
      (fun r c -> (r, c));
      (fun r c -> (rows - 1 - r, cols - 1 - c));
      (fun r c -> (rows - 1 - r, c));
      (fun r c -> (r, cols - 1 - c));
    ]
    @
    if rows = cols then
      [
        (fun r c -> (c, r));
        (fun r c -> (cols - 1 - c, rows - 1 - r));
        (fun r c -> (c, rows - 1 - r));
        (fun r c -> (cols - 1 - c, r));
      ]
    else []
  in
  let perm f =
    Array.init (pe_count t) (fun i ->
        let r, c = f (i / cols) (i mod cols) in
        index t ~row:r ~col:c)
  in
  let sorted l = List.sort compare l in
  let keeps s =
    let same i =
      let j = s.(i) in
      t.pes.(j) = t.pes.(i)
      && pe_ok t j = pe_ok t i
      && sorted (dead_slots t ~pe:j) = sorted (dead_slots t ~pe:i)
      && effective_rf_size t j = effective_rf_size t i
      && sorted (neighbours t j) = sorted (List.map (fun k -> s.(k)) (neighbours t i))
    in
    List.for_all same (List.init (pe_count t) Fun.id)
  in
  List.fold_left
    (fun acc f ->
      let s = perm f in
      if List.mem s acc || not (keeps s) then acc else acc @ [ s ])
    [] dihedral

(* ---------- Standard instances ---------- *)

(* Homogeneous mesh where every cell does everything: the "simple CGRA"
   of Fig. 2. *)
let uniform ?(topology = Topology.Mesh) ?(rf_size = 4) ?faults ~rows ~cols () =
  let pe = Pe.make ~rf_size [ Op.F_alu; Op.F_mul; Op.F_mem; Op.F_io ] in
  build ~label:(Sized "uniform") ?faults ~rows ~cols ~topology (Array.make (rows * cols) pe)

(* ADRES-flavoured heterogeneous array: memory and I/O restricted to the
   first column, multipliers on even cells only. *)
let adres_like ?(topology = Topology.Mesh) ?(rf_size = 8) ?faults ~rows ~cols () =
  let pes =
    Array.init (rows * cols) (fun i ->
        let col = i mod cols in
        let base = [ Op.F_alu ] in
        let base = if i mod 2 = 0 then Op.F_mul :: base else base in
        let base = if col = 0 then Op.F_mem :: Op.F_io :: base else base in
        Pe.make ~rf_size base)
  in
  build ~label:(Sized "adres") ?faults ~rows ~cols ~topology pes

(* Single full-featured PE: the "CPU-like" end of the Fig. 1 spectrum
   (pure temporal computation). *)
let single_pe ?(rf_size = 16) () =
  make ~name:"single-pe" ~rows:1 ~cols:1 ~topology:Topology.Mesh
    (Array.make 1 (Pe.make ~rf_size [ Op.F_alu; Op.F_mul; Op.F_mem; Op.F_io ]))

let describe t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s: %dx%d %s\n" (name t) t.rows t.cols (Topology.to_string t.topology));
  if t.faults <> [] then
    Buffer.add_string buf (Printf.sprintf "  faults: %s\n" (Fault.list_to_string t.faults));
  for r = 0 to t.rows - 1 do
    for c = 0 to t.cols - 1 do
      let i = index t ~row:r ~col:c in
      Buffer.add_string buf (Printf.sprintf "  PE(%d,%d) %s\n" r c (Pe.to_string t.pes.(i)))
    done
  done;
  Buffer.contents buf
