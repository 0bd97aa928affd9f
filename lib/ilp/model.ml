(* Modeling layer: named variables, linear expressions, and constraint
   building on top of the raw LP/ILP solvers.  The ILP mappers write
   their formulations against this interface. *)

type var = int

type t = {
  mutable names : string list; (* reversed *)
  mutable n : int;
  mutable kinds : Ilp.var_kind list; (* reversed *)
  mutable ubs : (var * float) list;
  mutable rows : ((float * var) list * Lp.relation * float) list;
  mutable objective : (float * var) list;
  mutable maximize : bool;
}

let create ?(maximize = false) () =
  { names = []; n = 0; kinds = []; ubs = []; rows = []; objective = []; maximize }

let add_var ?(kind = Ilp.Continuous) ?ub t name =
  let v = t.n in
  t.n <- v + 1;
  t.names <- name :: t.names;
  t.kinds <- kind :: t.kinds;
  (match ub with Some u -> t.ubs <- (v, u) :: t.ubs | None -> ());
  v

let binary t name =
  add_var ~kind:Ilp.Integer ~ub:1.0 t name

let integer ?ub t name = add_var ~kind:Ilp.Integer ?ub t name

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
        (fun (v, u) ->
          let coeffs = Array.make t.n 0.0 in
          coeffs.(v) <- 1.0;
          (coeffs, Lp.Le, u))
        t.ubs
  in
  let lp =
    { Lp.n = t.n; maximize = t.maximize; objective = densify t t.objective; rows }
  in
  let kinds = Array.of_list (List.rev t.kinds) in
  let outcome, stats = Ilp.solve ?max_nodes ?should_stop { lp; kinds } in
  let wrap value solution =
    let value_of v = solution.(v) in
    let int_value_of v = int_of_float (Float.round solution.(v)) in
    (value_of, int_value_of, value)
  in
  match outcome with
  | Ilp.Optimal { value; solution } ->
      let _, int_value_of, _ = wrap value solution in
      (Optimal value, Some (Array.init t.n (fun v -> int_value_of v)), stats)
  | Ilp.Feasible { value; solution } ->
      let _, int_value_of, _ = wrap value solution in
      (Feasible value, Some (Array.init t.n (fun v -> int_value_of v)), stats)
  | Ilp.Infeasible -> (Infeasible, None, stats)
  | Ilp.Unbounded -> (Unbounded, None, stats)
  | Ilp.Limit -> (Limit, None, stats)
