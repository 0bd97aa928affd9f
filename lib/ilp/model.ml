(* Modeling layer: binary variables, linear expressions, and constraint
   building on top of the raw LP/ILP solvers.  The ILP mappers write
   their formulations against this interface. *)

type var = int

type t = {
  mutable n : int;
  mutable ubs : var list; (* reversed; each bounded by 1 *)
  mutable rows : ((float * var) list * Lp.relation * float) list;
  mutable objective : (float * var) list;
  mutable maximize : bool;
}

let create ?(maximize = false) () = { n = 0; ubs = []; rows = []; objective = []; maximize }

let binary t =
  let v = t.n in
  t.n <- v + 1;
  t.ubs <- v :: t.ubs;
  v

let add_constraint t terms rel rhs = t.rows <- (terms, rel, rhs) :: t.rows

let set_objective t terms = t.objective <- terms

let densify t terms =
  let coeffs = Array.make t.n 0.0 in
  List.iter
    (fun (c, v) ->
      if v < 0 || v >= t.n then invalid_arg "Model: unknown variable";
      coeffs.(v) <- coeffs.(v) +. c)
    terms;
  coeffs

type outcome =
  | Optimal of float
  | Feasible of float
  | Infeasible
  | Unbounded
  | Limit

let solve ?max_nodes ?should_stop t =
  let rows =
    List.rev_map (fun (terms, rel, rhs) -> (densify t terms, rel, rhs)) t.rows
    @ List.map
        (fun v ->
          let coeffs = Array.make t.n 0.0 in
          coeffs.(v) <- 1.0;
          (coeffs, Lp.Le, 1.0))
        t.ubs
  in
  let lp =
    { Lp.n = t.n; maximize = t.maximize; objective = densify t t.objective; rows }
  in
  let kinds = Array.make t.n Ilp.Integer in
  let outcome, stats = Ilp.solve ?max_nodes ?should_stop { lp; kinds } in
  let round solution = Array.init t.n (fun v -> int_of_float (Float.round solution.(v))) in
  match outcome with
  | Ilp.Optimal { value; solution } -> (Optimal value, Some (round solution), stats)
  | Ilp.Feasible { value; solution } -> (Feasible value, Some (round solution), stats)
  | Ilp.Infeasible -> (Infeasible, None, stats)
  | Ilp.Unbounded -> (Unbounded, None, stats)
  | Ilp.Limit -> (Limit, None, stats)
