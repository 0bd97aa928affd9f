(* Finite-domain constraint solver.

   The CP-based mapper ([43] in the survey) poses binding+scheduling as
   a constraint satisfaction problem; this engine provides bitset
   domains over non-negative integers, a propagation queue with
   constraint-specific filtering (all-different with a counting
   argument, linear bounds, positive table constraints with GAC
   support scanning), and depth-first search with smallest-domain-first
   variable ordering and chronological backtracking by domain
   snapshots. *)

module Bitset = Ocgra_util.Bitset

(* Propagation queue: ints with a membership flag (no duplicates). *)
module Q = struct
  type t = { mutable items : int list; mutable mem : bool array }

  let create () = { items = []; mem = Array.make 16 false }

  let ensure q n =
    if n > Array.length q.mem then begin
      let bigger = Array.make (max n (2 * Array.length q.mem)) false in
      Array.blit q.mem 0 bigger 0 (Array.length q.mem);
      q.mem <- bigger
    end

  let push q i =
    ensure q (i + 1);
    if not q.mem.(i) then begin
      q.mem.(i) <- true;
      q.items <- i :: q.items
    end

  let pop q =
    match q.items with
    | [] -> None
    | i :: rest ->
        q.items <- rest;
        q.mem.(i) <- false;
        Some i

  let clear q =
    List.iter (fun i -> q.mem.(i) <- false) q.items;
    q.items <- []
end

type var = int

type t = {
  mutable domains : Bitset.t array;
  mutable nvars : int;
  mutable constraints : constr array;
  mutable n_constraints : int;
  mutable watchers : int list array; (* var -> constraint ids *)
  queue : Q.t;
  mutable failures : int;
  mutable decisions : int;
  mutable propagations : int;
  depth_counts : int array; (* decisions by search depth (exact, tail at 63);
                               flushed into Obs histograms by the mapper wrappers *)
}

and constr = {
  vars : var array; (* scope *)
  propagate : t -> bool; (* false = domain wipe-out / failure *)
}

let create () =
  {
    domains = Array.make 8 (Bitset.create 1);
    nvars = 0;
    constraints = Array.make 8 { vars = [||]; propagate = (fun _ -> true) };
    n_constraints = 0;
    watchers = Array.make 8 [];
    queue = Q.create ();
    failures = 0;
    decisions = 0;
    propagations = 0;
    depth_counts = Array.make 64 0;
  }

let new_var t values =
  if values = [] then invalid_arg "Cp.new_var: empty domain";
  let maxv = List.fold_left max 0 values in
  if List.exists (fun v -> v < 0) values then invalid_arg "Cp.new_var: negative value";
  let dom = Bitset.of_list (maxv + 1) values in
  let v = t.nvars in
  if v = Array.length t.domains then begin
    let n = 2 * v in
    let d = Array.make n (Bitset.create 1) and w = Array.make n [] in
    Array.blit t.domains 0 d 0 v;
    Array.blit t.watchers 0 w 0 v;
    t.domains <- d;
    t.watchers <- w
  end;
  t.domains.(v) <- dom;
  t.watchers.(v) <- [];
  t.nvars <- v + 1;
  v

let range_var t lo hi =
  if hi < lo then invalid_arg "Cp.range_var: empty range";
  new_var t (List.init (hi - lo + 1) (fun i -> lo + i))

let domain_size t v = Bitset.cardinal t.domains.(v)
let is_assigned t v = domain_size t v = 1

let value_exn t v =
  match Bitset.min_elt t.domains.(v) with
  | Some x when is_assigned t v -> x
  | _ -> invalid_arg "Cp.value_exn: variable not assigned"

let min_value t v =
  match Bitset.min_elt t.domains.(v) with
  | Some x -> x
  | None -> invalid_arg "Cp.min_value: empty domain"

let max_value t v = Bitset.fold (fun x _ -> x) t.domains.(v) 0

(* Remove a value; enqueue watchers on change. Returns false on wipe-out. *)
let remove_value t v x =
  if x >= 0 && x < Bitset.capacity t.domains.(v) && Bitset.mem t.domains.(v) x then begin
    Bitset.remove t.domains.(v) x;
    if Bitset.is_empty t.domains.(v) then false
    else begin
      List.iter (fun c -> Q.push t.queue c) t.watchers.(v);
      true
    end
  end
  else true

let assign t v x =
  if x < 0 || x >= Bitset.capacity t.domains.(v) || not (Bitset.mem t.domains.(v) x) then false
  else begin
    if domain_size t v > 1 then begin
      let d = Bitset.create (Bitset.capacity t.domains.(v)) in
      Bitset.add d x;
      t.domains.(v) <- d;
      List.iter (fun c -> Q.push t.queue c) t.watchers.(v)
    end;
    true
  end

let add_constraint t vars propagate =
  let id = t.n_constraints in
  let c = { vars; propagate } in
  if id = Array.length t.constraints then begin
    let bigger = Array.make (2 * id) c in
    Array.blit t.constraints 0 bigger 0 id;
    t.constraints <- bigger
  end;
  t.constraints.(id) <- c;
  t.n_constraints <- id + 1;
  Array.iter (fun v -> t.watchers.(v) <- id :: t.watchers.(v)) vars;
  Q.push t.queue id

(* ---------- constraints ---------- *)

(* all_different: assigned-value elimination plus pigeonhole counting
   over the union of domains. *)
let all_different t vars =
  let vars = Array.of_list vars in
  let propagate t =
    let ok = ref true in
    Array.iter
      (fun v ->
        if !ok && is_assigned t v then begin
          let x = value_exn t v in
          Array.iter (fun w -> if !ok && w <> v then ok := remove_value t w x) vars
        end)
      vars;
    if !ok then begin
      let cap = Array.fold_left (fun acc v -> max acc (Bitset.capacity t.domains.(v))) 1 vars in
      let union = Bitset.create cap in
      Array.iter (fun v -> Bitset.iter (fun x -> Bitset.add union x) t.domains.(v)) vars;
      if Bitset.cardinal union < Array.length vars then ok := false
    end;
    !ok
  in
  add_constraint t vars propagate

(* sum c_i * x_i <= k, bounds consistency *)
let linear_le t terms k =
  let terms = Array.of_list terms in
  let vars = Array.map snd terms in
  let propagate t =
    let min_sum =
      Array.fold_left
        (fun acc (c, v) -> acc + if c >= 0 then c * min_value t v else c * max_value t v)
        0 terms
    in
    if min_sum > k then false
    else begin
      let ok = ref true in
      Array.iter
        (fun (c, v) ->
          if !ok && c <> 0 then begin
            let contribution_min = if c >= 0 then c * min_value t v else c * max_value t v in
            let rest = min_sum - contribution_min in
            let slack = k - rest in
            Bitset.iter
              (fun x -> if !ok && c * x > slack then ok := remove_value t v x)
              (Bitset.copy t.domains.(v))
          end)
        terms;
      !ok
    end
  in
  add_constraint t vars propagate

(* positive table constraint with GAC by support scanning *)
let table t vars tuples =
  let vars = Array.of_list vars in
  let n = Array.length vars in
  List.iter
    (fun tup -> if Array.length tup <> n then invalid_arg "Cp.table: tuple arity mismatch")
    tuples;
  let tuples = Array.of_list tuples in
  let propagate t =
    let alive tup =
      let rec check i =
        i >= n
        || (tup.(i) >= 0
           && tup.(i) < Bitset.capacity t.domains.(vars.(i))
           && Bitset.mem t.domains.(vars.(i)) tup.(i)
           && check (i + 1))
      in
      check 0
    in
    let supported = Array.map (fun v -> Bitset.create (Bitset.capacity t.domains.(v))) vars in
    Array.iter
      (fun tup -> if alive tup then Array.iteri (fun i x -> Bitset.add supported.(i) x) tup)
      tuples;
    let ok = ref true in
    Array.iteri
      (fun i v ->
        if !ok then
          Bitset.iter
            (fun x -> if !ok && not (Bitset.mem supported.(i) x) then ok := remove_value t v x)
            (Bitset.copy t.domains.(v)))
      vars;
    !ok
  in
  add_constraint t vars propagate

(* ---------- propagation and search ---------- *)

let propagate_all t =
  let rec drain () =
    match Q.pop t.queue with
    | None -> true
    | Some ci ->
        t.propagations <- t.propagations + 1;
        if t.constraints.(ci).propagate t then drain ()
        else begin
          Q.clear t.queue;
          false
        end
  in
  drain ()

let snapshot t = Array.init t.nvars (fun v -> Bitset.copy t.domains.(v))

let restore t snap =
  Array.iteri (fun v d -> t.domains.(v) <- Bitset.copy d) snap;
  Q.clear t.queue

(* Re-enqueue everything: needed after a restore before re-solving. *)
let requeue_all t =
  for ci = 0 to t.n_constraints - 1 do
    Q.push t.queue ci
  done

(* Smallest-domain-first; None when all assigned. *)
let pick_var t =
  let best = ref (-1) and best_size = ref max_int in
  for v = 0 to t.nvars - 1 do
    let s = domain_size t v in
    if s > 1 && s < !best_size then begin
      best := v;
      best_size := s
    end
  done;
  if !best < 0 then None else Some !best

exception Solution_found

let solve ?(max_failures = max_int) ?(should_stop = fun () -> false)
    ?(value_order = fun (_ : var) (xs : int list) -> xs) t =
  let solution = ref None in
  (* amortised deadline polling: latch the stop and consult the hook
     only every few hundred search nodes *)
  let polls = ref 0 in
  let stop_requested = ref false in
  let poll_stop () =
    if not !stop_requested then begin
      incr polls;
      if !polls land 255 = 0 && should_stop () then stop_requested := true
    end;
    !stop_requested
  in
  let rec search depth =
    if t.failures > max_failures || poll_stop () then ()
    else if not (propagate_all t) then t.failures <- t.failures + 1
    else begin
      match pick_var t with
      | None ->
          solution := Some (Array.init t.nvars (fun v -> value_exn t v));
          raise Solution_found
      | Some v ->
          let values = value_order v (Bitset.elements t.domains.(v)) in
          List.iter
            (fun x ->
              if t.failures <= max_failures && !solution = None && not !stop_requested then begin
                let snap = snapshot t in
                t.decisions <- t.decisions + 1;
                let di = min depth 63 in
                t.depth_counts.(di) <- t.depth_counts.(di) + 1;
                if assign t v x then search (depth + 1) else t.failures <- t.failures + 1;
                restore t snap
              end)
            values
    end
  in
  requeue_all t;
  (try search 0 with Solution_found -> ());
  !solution

let stats t = (t.failures, t.decisions, t.propagations)
let dist_depth t = Array.copy t.depth_counts
