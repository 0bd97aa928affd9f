(* Canonical-form mapping cache: a small association of isomorphism
   classes to certified mappings.

   A linear scan is the right structure here: capacities are in the
   hundreds, the fingerprint comparison rejects non-members on one
   integer compare, and the arch-signature string compare short-circuits
   on length — so a lookup is microseconds against cold maps that cost
   milliseconds to seconds.  What we buy with the simplicity is easy
   determinism: eviction scans for the minimum of a monotone sequence
   counter, so there is no wall clock and no hash-order dependence
   anywhere in the replacement policy. *)

type entry = {
  key : string;
  mutable canon : Canon.t;
  mutable mapping : Ocgra_core.Mapping.t;
  mutable mask : Ocgra_arch.Fault.t list;
  mutable last_used : int;
  mutable hits : int;
}

type t = {
  cap : int;
  mutable entries : entry list;
  mutable seq : int; (* the LRU clock: bumped per cache touch *)
  mutable evicted : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  { cap = capacity; entries = []; seq = 0; evicted = 0 }

let size t = List.length t.entries
let evictions t = t.evicted

let tick t =
  t.seq <- t.seq + 1;
  t.seq

(* Find the entry of [c]'s isomorphism class under arch [key], with the
   representative -> request witness. *)
let find_class t ~key c =
  let fp = Canon.fingerprint c in
  let rec go = function
    | [] -> None
    | e :: rest ->
        if Canon.fingerprint e.canon = fp && e.key = key then
          match Canon.witness e.canon c with
          | Some w -> Some (e, w)
          | None -> go rest (* fingerprint collision: keep scanning *)
        else go rest
  in
  go t.entries

let lookup t ~key c =
  match find_class t ~key c with
  | Some (e, w) ->
      e.last_used <- tick t;
      e.hits <- e.hits + 1;
      Some (e, w)
  | None -> None

let insert t ~key c mapping ~mask =
  match find_class t ~key c with
  | Some (e, _) ->
      (* same class already cached (stale mask or demoted mapping):
         update in place, request becomes the new representative *)
      e.canon <- c;
      e.mapping <- mapping;
      e.mask <- mask;
      e.last_used <- tick t;
      (e, None)
  | None ->
      let victim =
        if List.length t.entries < t.cap then None
        else begin
          let v =
            List.fold_left
              (fun acc e ->
                match acc with
                | Some best when best.last_used <= e.last_used -> acc
                | _ -> Some e)
              None t.entries
          in
          (match v with
          | Some v ->
              t.entries <- List.filter (fun e -> e != v) t.entries;
              t.evicted <- t.evicted + 1
          | None -> ());
          v
        end
      in
      let e = { key; canon = c; mapping; mask; last_used = tick t; hits = 0 } in
      t.entries <- t.entries @ [ e ];
      (e, victim)
