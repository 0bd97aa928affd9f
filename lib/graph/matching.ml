(* Hopcroft-Karp maximum bipartite matching.

   Used as a fast feasibility filter by binding algorithms: a partial
   binding can only extend to a full one if the remaining operations
   admit a perfect matching into the remaining compatible slots. *)

type t = {
  n_left : int;
  n_right : int;
  adj : int list array; (* for each left vertex, compatible right vertices *)
}

let create ~n_left ~n_right = { n_left; n_right; adj = Array.make n_left [] }

let add_pair t l r =
  if l < 0 || l >= t.n_left then invalid_arg "Matching.add_pair: left out of range";
  if r < 0 || r >= t.n_right then invalid_arg "Matching.add_pair: right out of range";
  t.adj.(l) <- r :: t.adj.(l)

let inf = max_int

(* Returns (size, match_left, match_right); -1 means unmatched. *)
let solve t =
  let match_l = Array.make t.n_left (-1) in
  let match_r = Array.make t.n_right (-1) in
  let dist = Array.make t.n_left 0 in
  let bfs () =
    let queue = Queue.create () in
    let found = ref false in
    for l = 0 to t.n_left - 1 do
      if match_l.(l) = -1 then begin
        dist.(l) <- 0;
        Queue.add l queue
      end
      else dist.(l) <- inf
    done;
    while not (Queue.is_empty queue) do
      let l = Queue.pop queue in
      List.iter
        (fun r ->
          let l' = match_r.(r) in
          if l' = -1 then found := true
          else if dist.(l') = inf then begin
            dist.(l') <- dist.(l) + 1;
            Queue.add l' queue
          end)
        t.adj.(l)
    done;
    !found
  in
  let rec dfs l =
    let rec try_rights = function
      | [] ->
          dist.(l) <- inf;
          false
      | r :: rest ->
          let l' = match_r.(r) in
          let ok = l' = -1 || (dist.(l') = dist.(l) + 1 && dfs l') in
          if ok then begin
            match_l.(l) <- r;
            match_r.(r) <- l;
            true
          end
          else try_rights rest
    in
    try_rights t.adj.(l)
  in
  let size = ref 0 in
  while bfs () do
    for l = 0 to t.n_left - 1 do
      if match_l.(l) = -1 && dfs l then incr size
    done
  done;
  (!size, match_l, match_r)

let max_matching_size t =
  let size, _, _ = solve t in
  size
