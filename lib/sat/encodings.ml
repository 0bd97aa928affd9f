(* Cardinality encodings over solver literals.

   The SAT mapper needs exactly-one (each DFG node gets one slot) and
   at-most-one (each slot runs at most one op), encoded with the
   pairwise and sequential schemes.

   Every helper takes an optional activation [?guard] literal: each
   emitted clause is weakened to (not guard) \/ clause, so the whole
   constraint group only binds while [guard] is assumed true.  The
   incremental II sweep uses this to keep the per-II constraints of
   every candidate II in one solver instance, activating exactly one
   group per solve and retiring refuted groups with a unit
   [not guard]. *)

(* Guarded clause emission: the single choke point every encoding goes
   through, so a guard covers auxiliary-variable clauses too. *)
let add ?guard s lits =
  match guard with
  | None -> Solver.add_clause s lits
  | Some g -> Solver.add_clause s (Solver.negate g :: lits)

(* Pairwise at-most-one: quadratic, best for small groups. *)
let at_most_one_pairwise ?guard s lits =
  let arr = Array.of_list lits in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      add ?guard s [ Solver.negate arr.(i); Solver.negate arr.(j) ]
    done
  done

(* Sequential at-most-one (Sinz): linear, auxiliary variables. *)
let at_most_one_sequential ?guard s lits =
  match lits with
  | [] | [ _ ] -> ()
  | _ ->
      let arr = Array.of_list lits in
      let n = Array.length arr in
      let aux = Array.init (n - 1) (fun _ -> Solver.new_var s) in
      (* s_i means "one of arr.(0..i) is true" *)
      add ?guard s [ Solver.negate arr.(0); Solver.pos aux.(0) ];
      for i = 1 to n - 2 do
        add ?guard s [ Solver.negate arr.(i); Solver.pos aux.(i) ];
        add ?guard s [ Solver.neg aux.(i - 1); Solver.pos aux.(i) ];
        add ?guard s [ Solver.negate arr.(i); Solver.neg aux.(i - 1) ]
      done;
      add ?guard s [ Solver.negate arr.(n - 1); Solver.neg aux.(n - 2) ]

let at_most_one ?guard s lits =
  if List.length lits <= 6 then at_most_one_pairwise ?guard s lits
  else at_most_one_sequential ?guard s lits

let exactly_one ?guard s lits =
  add ?guard s lits;
  at_most_one ?guard s lits

(* Implication helper: a -> (b1 or b2 or ...) *)
let implies ?guard s a bs = add ?guard s (Solver.negate a :: bs)
