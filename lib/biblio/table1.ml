(* Regenerate the paper's Table I ("A review of binding and scheduling
   techniques for automated spatial and temporal mapping of
   applications on CGRAs") from the structured corpus. *)

open Dataset

(* The table's column structure: (header, technique sub-columns). *)
let columns =
  [
    ("Heuristics", [ T_heuristic ]);
    ("Meta-heuristics", [ T_ga; T_qea; T_sa ]);
    ("ILP/B&B", [ T_ilp; T_bb ]);
    ("CSP", [ T_cp; T_sat; T_smt ]);
  ]

let rows = [ S_spatial; S_temporal; S_binding; S_scheduling ]

let cite_list refs =
  if refs = [] then "-"
  else String.concat " " (List.map (fun r -> Printf.sprintf "[%d]" r) refs)

let cell_text scope techniques =
  let parts =
    List.filter_map
      (fun t ->
        match in_cell scope t with
        | [] -> None
        | refs ->
            let label =
              match t with
              | T_heuristic -> ""
              | t -> technique_to_string t ^ " "
            in
            Some (label ^ cite_list refs))
      techniques
  in
  match parts with [] -> "-" | _ -> String.concat "  " parts

let render () =
  let headers = Array.of_list ("" :: List.map fst columns) in
  let body =
    List.map
      (fun scope ->
        Array.of_list
          (scope_to_string scope
          :: List.map (fun (_, techniques) -> cell_text scope techniques) columns))
      rows
  in
  Ocgra_util.Table.render ~headers body
