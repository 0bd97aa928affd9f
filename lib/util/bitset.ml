(* Fixed-capacity bitset over ints, backed by an int array.

   The CP engine stores finite domains as bitsets; the SAT solver and
   graph algorithms use them as dense visited sets. *)

type t = { words : int array; capacity : int }

let word_bits = Sys.int_size

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make ((capacity + word_bits - 1) / word_bits) 0; capacity }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let add t i =
  check t i;
  t.words.(i / word_bits) <- t.words.(i / word_bits) lor (1 lsl (i mod word_bits))

let remove t i =
  check t i;
  t.words.(i / word_bits) <- t.words.(i / word_bits) land lnot (1 lsl (i mod word_bits))

let mem t i =
  check t i;
  t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let fill t =
  for i = 0 to t.capacity - 1 do
    add t i
  done

let copy t = { words = Array.copy t.words; capacity = t.capacity }

let popcount_word w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let inter_into ~src ~dst =
  if src.capacity <> dst.capacity then invalid_arg "Bitset.inter_into: capacity mismatch";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let diff_into ~src ~dst =
  if src.capacity <> dst.capacity then invalid_arg "Bitset.diff_into: capacity mismatch";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land lnot src.words.(i)
  done

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = t.words.(w) in
    if word <> 0 then
      for b = 0 to word_bits - 1 do
        if word land (1 lsl b) <> 0 then f ((w * word_bits) + b)
      done
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

(* Smallest member, or None. *)
let min_elt t =
  let result = ref None in
  (try
     iter
       (fun i ->
         result := Some i;
         raise Exit)
       t
   with Exit -> ());
  !result

let of_list capacity l =
  let t = create capacity in
  List.iter (add t) l;
  t
