(* Hop distances by breadth-first search: the array's hop table
   (Cgra.hop_table) that the mappers' placement costs read. *)

let unreachable = max_int

(* Breadth-first distances from [src]; [unreachable] where no path. *)
let bfs g src =
  let n = Digraph.node_count g in
  let dist = Array.make n unreachable in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun w ->
        if dist.(w) = unreachable then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w queue
        end)
      (Digraph.succ g v)
  done;
  dist

(* All-pairs shortest hop counts (BFS from every node); used by the
   spatial mappers for distance tables over small PE arrays. *)
let all_pairs_hops g =
  let n = Digraph.node_count g in
  Array.init n (fun v -> bfs g v)
