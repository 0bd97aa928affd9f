(* Lazy SMT for integer difference logic (IDL) on top of the CDCL SAT
   solver.

   The SMT-based mapper in the survey ([44], Donovick et al.) mixes a
   boolean placement structure with integer scheduling constraints of
   the form x - y <= c.  This solver implements the standard lazy
   scheme: atoms are boolean proxies; after each propositionally
   satisfying assignment the active difference constraints are checked
   with Bellman-Ford; a negative cycle yields a blocking clause over
   exactly the atoms on the cycle, and the loop repeats. *)

module Sat = Ocgra_sat.Solver

type ivar = int

type edge = {
  src : ivar;
  dst : ivar; (* constraint: value(dst) - value(src) <= weight *)
  weight : int;
  lit : Sat.lit; (* edge is active when this literal is true *)
}

type t = {
  sat : Sat.t;
  mutable n_ints : int;
  mutable edges : edge list;
  atoms : (int * int * int, Sat.lit) Hashtbl.t; (* (x, y, c) -> lit for x - y <= c *)
  mutable model : int array; (* integer model after Sat *)
  mutable rounds : int;
}

type result = Sat_ | Unsat_ | Unknown_

let create () =
  {
    sat = Sat.create ();
    n_ints = 0;
    edges = [];
    atoms = Hashtbl.create 64;
    model = [||];
    rounds = 0;
  }

let new_int t =
  let v = t.n_ints in
  t.n_ints <- v + 1;
  v

let new_bool t = Sat.pos (Sat.new_var t.sat)

(* Literal for the atom x - y <= c (interned). *)
let atom_le t x y c =
  match Hashtbl.find_opt t.atoms (x, y, c) with
  | Some l -> l
  | None ->
      let l = Sat.pos (Sat.new_var t.sat) in
      Hashtbl.add t.atoms (x, y, c) l;
      (* when true:  x - y <= c      : edge y -> x, weight c
         when false: y - x <= -c - 1 : edge x -> y, weight -c-1 *)
      t.edges <- { src = y; dst = x; weight = c; lit = l } :: t.edges;
      t.edges <- { src = x; dst = y; weight = -c - 1; lit = Sat.negate l } :: t.edges;
      l

(* Convenience atoms *)
let atom_ge t x y c = (* x - y >= c  <=>  y - x <= -c *) atom_le t y x (-c)

(* Bellman-Ford over the active edges; returns None when consistent
   (with the distance array), or the list of edges on a negative
   cycle. *)
let check_theory t active_edges =
  let n = t.n_ints in
  let dist = Array.make n 0 in
  let parent_edge = Array.make n None in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    List.iter
      (fun e ->
        if dist.(e.src) + e.weight < dist.(e.dst) then begin
          dist.(e.dst) <- dist.(e.src) + e.weight;
          parent_edge.(e.dst) <- Some e;
          changed := true
        end)
      active_edges
  done;
  if not !changed then None
  else begin
    (* find a node on the cycle: start from any recently-relaxed node
       and walk parents n times *)
    let start = ref (-1) in
    List.iter
      (fun e -> if !start < 0 && dist.(e.src) + e.weight < dist.(e.dst) then start := e.dst)
      active_edges;
    let v = ref !start in
    for _ = 1 to n do
      match parent_edge.(!v) with Some e -> v := e.src | None -> ()
    done;
    (* collect the cycle through parent edges *)
    let cycle = ref [] in
    let u = ref !v in
    let continue_ = ref true in
    while !continue_ do
      match parent_edge.(!u) with
      | Some e ->
          cycle := e :: !cycle;
          u := e.src;
          if !u = !v then continue_ := false
      | None -> continue_ := false (* defensive; should not happen *)
    done;
    Some !cycle
  end

let solve ?(max_rounds = 10_000) ?(max_conflicts = max_int) ?(should_stop = fun () -> false) t =
  let rec loop round =
    if round >= max_rounds || should_stop () then Unknown_
    else begin
      t.rounds <- round + 1;
      match Sat.solve ~max_conflicts ~should_stop t.sat with
      | Sat.Unsat -> Unsat_
      | Sat.Unknown -> Unknown_
      | Sat.Sat ->
          let active = List.filter (fun e -> Sat.value t.sat e.lit) t.edges in
          (match check_theory t active with
          | None ->
              (* build the integer model from shortest distances *)
              let n = t.n_ints in
              let dist = Array.make n 0 in
              let stable = ref false in
              while not !stable do
                stable := true;
                List.iter
                  (fun e ->
                    if dist.(e.src) + e.weight < dist.(e.dst) then begin
                      dist.(e.dst) <- dist.(e.src) + e.weight;
                      stable := false
                    end)
                  active
              done;
              (* shift so the minimum is 0 *)
              let m = Array.fold_left min 0 dist in
              t.model <- Array.map (fun d -> d - m) dist;
              Sat_
          | Some cycle ->
              (* block this combination of theory literals *)
              let clause = List.map (fun e -> Sat.negate e.lit) cycle in
              Sat.add_clause t.sat clause;
              loop (round + 1))
    end
  in
  loop 0

let int_value t v =
  if Array.length t.model = 0 then invalid_arg "Smt.int_value: no model";
  t.model.(v)

let rounds t = t.rounds
let sat_solver t = t.sat
