(* Deterministic pseudo-random number generator.

   All stochastic components of the framework (meta-heuristics, random
   workload generation, randomized restarts) draw from this generator so
   that every experiment is reproducible from a single integer seed.
   The core is splitmix64.

   The state is one unsynchronised mutable cell: a [t] must never be
   shared across domains (see the contract in rng.mli) — pre-draw
   seeds before any fan-out. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

(* splitmix64's output for one state: the state only ever moves by
   [golden], so the k-th draw from state [s] is [mix (s + k * golden)]
   and any draw ahead can be computed without the ones before it. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* splitmix64 step: returns a new 64-bit value and advances the state. *)
let next64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

(* Non-negative int drawn from the top 62 bits. *)
let top62 z = Int64.to_int (Int64.shift_right_logical z 2)

let bits t = top62 (next64 t)

(* One draw, no rejection loop: the modulo bias, at most bound / 2^62,
   buys the one-draw-per-call invariant [int_ahead] and [skip] rely
   on. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let int_ahead t j bound =
  if bound <= 0 then invalid_arg "Rng.int_ahead: bound must be positive";
  top62 (mix (Int64.add t.state (Int64.mul (Int64.of_int (j + 1)) golden))) mod bound

let skip t n = t.state <- Int64.add t.state (Int64.mul (Int64.of_int n) golden)

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  bound *. x /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next64 t) 1L = 1L

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle_in_place t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let shuffle t arr =
  let a = Array.copy arr in
  shuffle_in_place t a;
  a
