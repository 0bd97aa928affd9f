(* A mapping: the output of the mapping process.

   "The mapping of a CGRA is actually equivalent to identifying the
   spatial and temporal coordinates of every node and arc in the
   control/data flow graph" [3].  Nodes get a (PE, cycle) binding; arcs
   get a route: a sequence of one-cycle hops (Route operations that
   occupy an FU) and register-file holds (that occupy an RF entry and
   move the value in time without moving it in space).

   Timing model (single-cycle PEs, shared by router/checker/simulator):
   an op issued at (p, t) reads its operands during cycle t — from a
   neighbour's or its own output register written at end of t-1, from
   its own RF, or from the immediate field — and its result is readable
   from cycle t + latency. *)

type step =
  | Hop of { pe : int; time : int }
      (* a Route operation on [pe] at absolute cycle [time]; it reads
         the value from the current holder's output register (or own
         RF when preceded by a Hold on the same PE) and re-emits it *)
  | Hold of { pe : int; from_ : int; until : int }
      (* an RF entry on [pe] keeps the value; written at the end of
         cycle [from_], read during cycle [until] *)

type route = step list

type t = {
  ii : int; (* 1 for spatial mappings *)
  binding : (int * int) array; (* node id -> (pe, cycle) *)
  routes : route array; (* one per DFG edge, in Dfg.edges order *)
}

let schedule_length t =
  Array.fold_left (fun acc (_, time) -> max acc (time + 1)) 0 t.binding

let route_hops route =
  List.length (List.filter (function Hop _ -> true | Hold _ -> false) route)

let route_hold_cycles route =
  List.fold_left
    (fun acc s -> match s with Hold { from_; until; _ } -> acc + (until - from_) | Hop _ -> acc)
    0 route

let total_route_hops t = Array.fold_left (fun acc r -> acc + route_hops r) 0 t.routes
let total_hold_cycles t = Array.fold_left (fun acc r -> acc + route_hold_cycles r) 0 t.routes

(* Render the schedule as a grid: rows = cycles 0..II-1 (the repeating
   kernel), columns = PEs; cells show the op scheduled there, as in the
   modulo-scheduling picture of Fig. 3. *)
let to_grid t (dfg : Ocgra_dfg.Dfg.t) (cgra : Ocgra_arch.Cgra.t) =
  let npe = Ocgra_arch.Cgra.pe_count cgra in
  let grid = Array.make_matrix t.ii npe "." in
  Array.iteri
    (fun v (pe, time) ->
      let slot = time mod t.ii in
      grid.(slot).(pe) <-
        Printf.sprintf "%s@%d" (Ocgra_dfg.Op.to_string (Ocgra_dfg.Dfg.op dfg v)) time)
    t.binding;
  Array.iter
    (fun route ->
      List.iter
        (function
          | Hop { pe; time } ->
              let slot = time mod t.ii in
              if grid.(slot).(pe) = "." then grid.(slot).(pe) <- Printf.sprintf "route@%d" time
          | Hold _ -> ())
        route)
    t.routes;
  let headers =
    Array.append [| "slot" |]
      (Array.init npe (fun i ->
           let r, c = Ocgra_arch.Cgra.coords cgra i in
           Printf.sprintf "PE(%d,%d)" r c))
  in
  let rows =
    List.init t.ii (fun s ->
        Array.append [| string_of_int s |] (Array.map (fun cell -> cell) grid.(s)))
  in
  Ocgra_util.Table.render ~headers rows
