(* Maximum clique via Bron-Kerbosch with pivoting, over an undirected
   graph given as a symmetric adjacency matrix of bitsets.

   RAMP-style binding builds a compatibility graph whose maximum clique
   is a consistent binding. *)

module Bitset = Ocgra_util.Bitset

type t = { n : int; adj : Bitset.t array }

let create n = { n; adj = Array.init n (fun _ -> Bitset.create n) }

let add_edge t i j =
  if i = j then invalid_arg "Clique.add_edge: self loop";
  Bitset.add t.adj.(i) j;
  Bitset.add t.adj.(j) i

(* Bron-Kerbosch with pivot; [max_steps] bounds the number of recursive
   expansions so the exact search degrades gracefully on big product
   graphs (it then returns the best clique found so far, flagged as not
   proven maximum). *)
let maximum ?(max_steps = 1_000_000) t =
  let best = ref [] in
  let best_size = ref 0 in
  let steps = ref 0 in
  let exceeded = ref false in
  let rec bk r p x =
    incr steps;
    if !steps > max_steps then exceeded := true
    else if Bitset.is_empty p && Bitset.is_empty x then begin
      let size = List.length r in
      if size > !best_size then begin
        best_size := size;
        best := r
      end
    end
    else begin
      (* Pivot: vertex of P union X with most neighbours in P. *)
      let pivot = ref (-1) and pivot_deg = ref (-1) in
      let consider u =
        let tmp = Bitset.copy p in
        Bitset.inter_into ~src:t.adj.(u) ~dst:tmp;
        let d = Bitset.cardinal tmp in
        if d > !pivot_deg then begin
          pivot_deg := d;
          pivot := u
        end
      in
      Bitset.iter consider p;
      Bitset.iter consider x;
      let candidates = Bitset.copy p in
      if !pivot >= 0 then Bitset.diff_into ~src:t.adj.(!pivot) ~dst:candidates;
      Bitset.iter
        (fun v ->
          if (not !exceeded) && Bitset.mem p v then begin
            let p' = Bitset.copy p and x' = Bitset.copy x in
            Bitset.inter_into ~src:t.adj.(v) ~dst:p';
            Bitset.inter_into ~src:t.adj.(v) ~dst:x';
            bk (v :: r) p' x';
            Bitset.remove p v;
            Bitset.add x v
          end)
        candidates
    end
  in
  let p = Bitset.create t.n and x = Bitset.create t.n in
  Bitset.fill p;
  bk [] p x;
  (List.sort compare !best, not !exceeded)
