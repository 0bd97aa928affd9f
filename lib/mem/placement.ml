(* Data placement: assign arrays to banks/base addresses so that the
   accesses of one steady-state cycle never collide ([67], [68]
   conflict-free loop mapping with multi-bank memory).

   Greedy: sort arrays by access pressure, place each on the bank with
   the least same-slot traffic.  Exact: a small assignment ILP
   minimising same-slot same-bank pairs. *)

module Lp = Ocgra_ilp.Lp
module Model = Ocgra_ilp.Model

type array_info = {
  name : string;
  size : int;
  slots : int list; (* modulo slots in which this array is accessed *)
}

(* Conflict weight between two arrays: number of shared access slots. *)
let conflict_weight a b =
  List.length (List.filter (fun s -> List.mem s b.slots) a.slots)

let greedy ~banks arrays =
  let assignment = Hashtbl.create 8 in
  let ordered =
    List.sort (fun a b -> compare (List.length b.slots) (List.length a.slots)) arrays
  in
  List.iter
    (fun a ->
      (* pick the bank minimising added conflict *)
      let cost bank =
        List.fold_left
          (fun acc other ->
            match Hashtbl.find_opt assignment other.name with
            | Some b when b = bank -> acc + conflict_weight a other
            | _ -> acc)
          0 arrays
      in
      let best = ref 0 and best_cost = ref max_int in
      for b = 0 to banks - 1 do
        let c = cost b in
        if c < !best_cost then begin
          best_cost := c;
          best := b
        end
      done;
      Hashtbl.replace assignment a.name !best)
    ordered;
  List.map (fun a -> (a.name, Hashtbl.find assignment a.name)) arrays

(* Exact assignment by ILP: binaries x[a][b]; conflict variables
   y[a,a'] >= x[a][b] + x[a'][b] - 1 for each shared bank; minimise the
   weighted sum of y. *)
let ilp ~banks arrays =
  let m = Model.create ~maximize:false () in
  let x = List.map (fun a -> (a.name, List.init banks (fun _ -> Model.binary m))) arrays in
  List.iter
    (fun (_, xs) -> Model.add_constraint m (List.map (fun v -> (1.0, v)) xs) Lp.Eq 1.0)
    x;
  let objective = ref [] in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
        List.iter
          (fun b ->
            let w = conflict_weight a b in
            if w > 0 then begin
              let y = Model.binary m in
              objective := (float_of_int w, y) :: !objective;
              let xa = List.assoc a.name x and xb = List.assoc b.name x in
              List.iteri
                (fun bank va ->
                  let vb = List.nth xb bank in
                  (* y >= xa + xb - 1 *)
                  Model.add_constraint m [ (1.0, y); (-1.0, va); (-1.0, vb) ] Lp.Ge (-1.0))
                xa
            end)
          rest;
        pairs rest
  in
  pairs arrays;
  Model.set_objective m !objective;
  (* 5 s monotonic budget (the ILP core keeps no clock of its own) *)
  let stop = Ocgra_core.Deadline.(should_stop (after ~seconds:5.0)) in
  match Model.solve ~max_nodes:2000 ~should_stop:stop m with
  | (Model.Optimal _ | Model.Feasible _), Some values, _ ->
      Some
        (List.map
           (fun a ->
             let xs = List.assoc a.name x in
             let bank = ref 0 in
             List.iteri (fun b v -> if values.(v) = 1 then bank := b) xs;
             (a.name, !bank))
           arrays)
  | _ -> None

(* Conflicts of an assignment: weighted same-bank pairs. *)
let cost arrays assignment =
  let bank_of name = List.assoc name assignment in
  let rec go acc = function
    | [] -> acc
    | a :: rest ->
        let acc =
          List.fold_left
            (fun acc b -> if bank_of a.name = bank_of b.name then acc + conflict_weight a b else acc)
            acc rest
        in
        go acc rest
  in
  go 0 arrays
