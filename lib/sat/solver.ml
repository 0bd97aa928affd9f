(* CDCL SAT solver.

   A conflict-driven clause-learning solver in the MiniSat lineage:
   watched-literal propagation, VSIDS decision heap, first-UIP
   conflict analysis with backjumping, phase saving and Luby restarts.
   The SAT-based mapper ([17] in the survey) and the difference-logic
   SMT layer are built on this solver.

   Watches: every clause is watched by its literals at positions 0 and
   1.  Each literal owns a flat [int array] stack of the clauses
   watching it, and [wx.(ci)] caches the xor of the clause's watched
   pair, so [wx.(ci) lxor falsified] names the other watched literal
   without touching the clause.  When that literal is true the watcher
   is kept and the clause is skipped; only a replacement search loads
   the literals.  [propagate] leaves every stack in the order a list
   would (kept watchers in visit order, an unvisited rest on top), and
   a skipped clause keeps its positions 0/1 unswapped, which nothing
   reads before the next replacement search normalises them; so the
   search path (conflicts, decisions, propagations) is exactly that of
   the plain two-watched-literal scheme.  Blocker literals are not
   used: a stale blocker would skip different clauses and change the
   search.

   The solver is *incremental*: clauses can be added between [solve]
   calls, and [solve ~assumptions] answers relative to a conjunction of
   assumption literals without damaging the instance.  Assumptions are
   decided first, one per decision level, so the decision level itself
   is the assumption cursor — establishing them costs O(1) per decision
   instead of a scan of the assumption list.  An assumption found false
   under the prefix ends the solve as Unsat with the instance intact;
   no failed-assumption core is derived, since every caller assumes at
   most one literal (a guard) and so already knows which one failed.

   Learnt-clause management: every learnt clause carries its LBD
   ("literal blocks distance" — the number of distinct decision levels
   among its literals at analysis time).  At restart boundaries the
   solver periodically runs [reduce_db], dropping high-LBD, low-activity
   learnt clauses while always keeping glue clauses (LBD <= 2) and
   locked clauses (those acting as the reason of an assigned literal),
   and [simplify], which deletes root-satisfied clauses — including
   clauses retired by a fixed activation literal — and strips
   root-falsified literals from the rest.  Both rebuild the watch stacks
   over a compacted clause store, so retired incremental clause groups
   actually release their memory.

   Allocation: the clause store keeps one array per field (literals,
   watched pair, learnt flag, activity, LBD) indexed by clause, so a
   clause costs no record and an activity bump no boxed float.
   [add_clause] normalises its literals in a persistent [int array]
   scratch: insertion sort with repeats dropped (the stored clause is
   ascending), a tautology seen as an adjacent [l], [negate l] pair,
   root-false literals filtered in place; only the stored copy is
   allocated.  First-UIP [analyze] gathers the learnt literals in
   persistent scratch too and counts the LBD against a per-level stamp
   array, so it allocates only the learnt clause and its result triple.
   Both give the clause, in the literal order, of the plain list
   formulation ([List.sort_uniq]; learnt literals newest first after
   the UIP), on which the watch choice and so the whole search depend.

   Literal encoding: variable v (1-based) gives literals 2v (positive)
   and 2v+1 (negative); [negate l = l lxor 1]. *)

type lit = int

let pos v = 2 * v
let neg v = (2 * v) + 1
let negate l = l lxor 1
let var_of l = l lsr 1
let is_pos l = l land 1 = 0

type result = Sat | Unsat | Unknown

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  reduces : int;
  learnts : int;
  lbd : int array;
  trail_depth : int array;
  props_per_decision : int array;
}

(* Values: 0 = unassigned, 1 = true, 2 = false (for the variable). *)
let v_undef = 0
let v_true = 1
let v_false = 2

type t = {
  mutable nvars : int;
  (* the clause store, one growable array per field, by clause index *)
  mutable lits : int array array; (* literals; the watched pair at 0 and 1 *)
  mutable wx : int array; (* lits.(0) lxor lits.(1), the watched pair *)
  mutable learnt : bool array;
  mutable cl_activity : float array; (* bumped for learnt clauses only *)
  mutable lbd : int array; (* distinct decision levels at analysis time; 0 for problem clauses *)
  mutable n_clauses : int;
  mutable n_learnts : int; (* learnt clauses currently in the store *)
  mutable watches : int array array; (* literal -> stack of clause indices watching it *)
  mutable watch_size : int array; (* literal -> live entries in its stack *)
  mutable kept : int array; (* propagate scratch: watchers kept, in visit order *)
  mutable assign : int array; (* var -> v_undef / v_true / v_false *)
  mutable level : int array; (* var -> decision level *)
  mutable reason : int array; (* var -> clause index or -1 *)
  mutable activity : float array; (* var -> VSIDS score *)
  mutable phase : bool array; (* var -> saved phase *)
  mutable trail : int array; (* assigned literals in order *)
  mutable trail_size : int;
  mutable trail_lim : int array; (* decision level -> trail position *)
  mutable n_levels : int;
  mutable qhead : int;
  (* decision heap (max-heap on activity) *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_pos : int array; (* var -> position in heap, -1 if absent *)
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool; (* false once trivially UNSAT *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  (* persistent first-UIP scratch: cleared via [to_clear] after each
     analysis instead of reallocating an O(nvars) array per conflict *)
  mutable seen : bool array;
  mutable to_clear : int array; (* vars marked in [seen] by the running analysis *)
  mutable learnt_buf : int array; (* non-UIP learnt literals in discovery order *)
  mutable level_stamp : int array; (* decision level -> last [stamp] that counted it *)
  mutable stamp : int;
  mutable add_buf : int array; (* add_clause scratch: the literals being normalised *)
  (* learnt-DB reduction schedule *)
  mutable max_learnts : int;
  mutable reduces : int;
  mutable simp_assigns : int; (* root trail size at the last simplify *)
  (* convergence introspection, tallied per conflict; the solver keeps
     plain int arrays (no observability dependency down here) and the
     mapper wrappers flush deltas into Obs histograms *)
  mutable restarts : int;
  lbd_counts : int array; (* index = learnt-clause LBD, tail bucket at 63 *)
  trail_counts : int array; (* index = floor(log2 trail_size) at conflict *)
  ppd_counts : int array; (* index = floor(log2 propagations-per-decision) *)
  mutable ppd_props : int; (* propagation/decision marks of the last conflict *)
  mutable ppd_decs : int;
}

let create ?(reduce_base = 4000) () =
  {
    nvars = 0;
    lits = Array.make 16 [||];
    wx = Array.make 16 0;
    learnt = Array.make 16 false;
    cl_activity = Array.make 16 0.0;
    lbd = Array.make 16 0;
    n_clauses = 0;
    n_learnts = 0;
    watches = Array.make 16 [||];
    watch_size = Array.make 16 0;
    kept = Array.make 16 0;
    assign = Array.make 16 v_undef;
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    trail = Array.make 16 0;
    trail_size = 0;
    trail_lim = Array.make 16 0;
    n_levels = 0;
    qhead = 0;
    heap = Array.make 16 0;
    heap_size = 0;
    heap_pos = Array.make 16 (-1);
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    seen = Array.make 16 false;
    to_clear = Array.make 16 0;
    learnt_buf = Array.make 16 0;
    level_stamp = Array.make 16 0;
    stamp = 0;
    add_buf = Array.make 16 0;
    max_learnts = max 16 reduce_base;
    reduces = 0;
    simp_assigns = -1;
    restarts = 0;
    lbd_counts = Array.make 64 0;
    trail_counts = Array.make 64 0;
    ppd_counts = Array.make 64 0;
    ppd_props = 0;
    ppd_decs = 0;
  }

let is_ok t = t.ok

(* ---------- dynamic arrays ---------- *)

(* Unchecked access, for the propagation, analysis, trail and heap
   loops only.  Each index there is a variable (1..nvars), a literal
   (its variable's 2v or 2v+1), a clause index below [n_clauses], or a
   trail, heap, watch-stack or scratch position below its live size, and
   [new_var], [push_clause], [watch] and the scratch growth checks size
   every array before such an index can exist.  [self_check] and the
   test suite audit those invariants. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let grow_int_array a n default =
  let a' = Array.make n default in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let grow_float_array a n =
  let a' = Array.make n 0.0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let grow_bool_array a n =
  let a' = Array.make n false in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* ---------- decision heap (max-heap on var activity) ---------- *)

(* Sifts with a hole instead of pairwise swaps: the entries that move
   and where they land are exactly those of the swap formulation. *)
let heap_up t i =
  let heap = t.heap and pos = t.heap_pos and act = t.activity in
  let v = heap.!(i) in
  let a = act.!(v) in
  let i = ref i in
  while !i > 0 && a > act.!(heap.!((!i - 1) / 2)) do
    let p = (!i - 1) / 2 in
    let u = heap.!(p) in
    heap.!(!i) <- u;
    pos.!(u) <- !i;
    i := p
  done;
  heap.!(!i) <- v;
  pos.!(v) <- !i

(* The larger child moves up while it beats the sifted entry; ties
   between the children go to the left one. *)
let heap_down t i =
  let heap = t.heap and pos = t.heap_pos and act = t.activity and size = t.heap_size in
  let v = heap.!(i) in
  let a = act.!(v) in
  let i = ref i and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= size then sifting := false
    else begin
      let r = l + 1 in
      let c = if r < size && act.!(heap.!(r)) > act.!(heap.!(l)) then r else l in
      let u = heap.!(c) in
      if act.!(u) > a then begin
        heap.!(!i) <- u;
        pos.!(u) <- !i;
        i := c
      end
      else sifting := false
    end
  done;
  heap.!(!i) <- v;
  pos.!(v) <- !i

let heap_insert t v =
  if t.heap_pos.!(v) < 0 then begin
    if t.heap_size = Array.length t.heap then t.heap <- grow_int_array t.heap (2 * t.heap_size) 0;
    t.heap.!(t.heap_size) <- v;
    t.heap_pos.!(v) <- t.heap_size;
    t.heap_size <- t.heap_size + 1;
    heap_up t (t.heap_size - 1)
  end

let heap_pop t =
  if t.heap_size = 0 then -1
  else begin
    let v = t.heap.!(0) in
    t.heap_size <- t.heap_size - 1;
    t.heap_pos.!(v) <- -1;
    if t.heap_size > 0 then begin
      t.heap.!(0) <- t.heap.!(t.heap_size);
      heap_down t 0
    end;
    v
  end

let[@inline] heap_update t v =
  let i = t.heap_pos.!(v) in
  if i >= 0 then heap_up t i

(* ---------- variables ---------- *)

let new_var t =
  let v = t.nvars + 1 in
  t.nvars <- v;
  let needed_vars = v + 1 in
  if needed_vars > Array.length t.assign then begin
    let n = max (2 * Array.length t.assign) needed_vars in
    t.assign <- grow_int_array t.assign n v_undef;
    t.level <- grow_int_array t.level n 0;
    t.reason <- grow_int_array t.reason n (-1);
    t.activity <- grow_float_array t.activity n;
    t.phase <- grow_bool_array t.phase n;
    t.heap_pos <- grow_int_array t.heap_pos n (-1);
    t.trail <- grow_int_array t.trail n 0;
    t.seen <- grow_bool_array t.seen n;
    t.to_clear <- grow_int_array t.to_clear n 0;
    t.learnt_buf <- grow_int_array t.learnt_buf n 0
  end;
  let needed_lits = (2 * v) + 2 in
  if needed_lits > Array.length t.watches then begin
    let n = max (2 * Array.length t.watches) needed_lits in
    let w = Array.make n [||] in
    Array.blit t.watches 0 w 0 (Array.length t.watches);
    t.watches <- w;
    t.watch_size <- grow_int_array t.watch_size n 0
  end;
  t.assign.(v) <- v_undef;
  t.heap_pos.(v) <- -1;
  heap_insert t v;
  v

(* literal value: v_true/v_false/v_undef *)
let[@inline] lit_value t l =
  let a = t.assign.!(var_of l) in
  if a = v_undef then v_undef else if is_pos l then a else 3 - a

let root_true t l = lit_value t l = v_true && t.level.(var_of l) = 0
let root_false t l = lit_value t l = v_false && t.level.(var_of l) = 0

let value t l =
  let v = var_of l in
  if v <= 0 || v > t.nvars then invalid_arg "Sat.value: bad variable";
  lit_value t l = v_true

(* ---------- clause store ---------- *)

(* Stores a clause of at least two literals and records its watched
   pair; the caller then watches [lits.(0)] and [lits.(1)]. *)
let push_clause t lits ~learnt ~activity ~lbd =
  let ci = t.n_clauses in
  if ci = Array.length t.lits then begin
    let n = 2 * ci in
    let grown = Array.make n [||] in
    Array.blit t.lits 0 grown 0 ci;
    t.lits <- grown;
    t.wx <- grow_int_array t.wx n 0;
    t.learnt <- grow_bool_array t.learnt n;
    t.cl_activity <- grow_float_array t.cl_activity n;
    t.lbd <- grow_int_array t.lbd n 0
  end;
  t.lits.(ci) <- lits;
  t.wx.(ci) <- lits.(0) lxor lits.(1);
  t.learnt.(ci) <- learnt;
  t.cl_activity.(ci) <- activity;
  t.lbd.(ci) <- lbd;
  t.n_clauses <- ci + 1;
  if learnt then t.n_learnts <- t.n_learnts + 1;
  ci

let grow_watches t l =
  let ws = t.watches.!(l) in
  t.watches.!(l) <- grow_int_array ws (max 4 (2 * Array.length ws)) 0

(* Push [ci] on top of [l]'s watch stack, growing a full stack first. *)
let[@inline] watch t l ci =
  let n = t.watch_size.!(l) in
  if n = Array.length t.watches.!(l) then grow_watches t l;
  t.watches.!(l).!(n) <- ci;
  t.watch_size.!(l) <- n + 1

(* ---------- assignment / trail ---------- *)

let decision_level t = t.n_levels

let[@inline] enqueue t l reason =
  let v = var_of l in
  t.assign.!(v) <- (if is_pos l then v_true else v_false);
  t.level.!(v) <- decision_level t;
  t.reason.!(v) <- reason;
  t.phase.!(v) <- is_pos l;
  t.trail.!(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

let new_decision_level t =
  if t.n_levels = Array.length t.trail_lim then
    t.trail_lim <- grow_int_array t.trail_lim (2 * t.n_levels) 0;
  t.trail_lim.(t.n_levels) <- t.trail_size;
  t.n_levels <- t.n_levels + 1

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_size - 1 downto bound do
      let v = var_of t.trail.!(i) in
      t.assign.!(v) <- v_undef;
      t.reason.!(v) <- -1;
      heap_insert t v
    done;
    t.trail_size <- bound;
    t.qhead <- bound;
    t.n_levels <- lvl
  end

(* ---------- propagation ---------- *)

(* Branch-free literal tests: a positive literal is true when its
   variable holds v_true (1), a negative one when it holds v_false (2). *)
let[@inline] lit_true assign l = assign.!(var_of l) = 1 + (l land 1)
let[@inline] lit_false assign l = assign.!(var_of l) = 2 - (l land 1)

(* Returns conflicting clause index, or -1.

   The watchers of the falsified literal are visited from the top of
   its stack down.  [wx.(ci) lxor falsified] is the clause's other
   watched literal, so a clause already satisfied by it is kept without
   loading the clause at all.  Otherwise the watched positions are
   normalised to [other; falsified] and the rest of the clause is
   scanned for a replacement watch.  Kept watchers are copied to the
   [kept] scratch in visit order; the stack is then rebuilt as the kept
   watchers with any unvisited rest (after a conflict) on top in its
   original order, so every stack is visited in the same order on the
   next pass. *)
let propagate t =
  let conflict = ref (-1) in
  let assign = t.assign and clause_lits = t.lits and wx = t.wx in
  while !conflict < 0 && t.qhead < t.trail_size do
    let p = t.trail.!(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let falsified = negate p in
    let ws = t.watches.!(falsified) in
    let n = t.watch_size.!(falsified) in
    if Array.length t.kept < n then t.kept <- Array.make (max n (2 * Array.length t.kept)) 0;
    let kept = t.kept in
    let nk = ref 0 in
    let i = ref (n - 1) in
    while !i >= 0 && !conflict < 0 do
      let ci = ws.!(!i) in
      decr i;
      let other = wx.!(ci) lxor falsified in
      if lit_true assign other then begin
        (* clause already satisfied: keep watching *)
        kept.!(!nk) <- ci;
        incr nk
      end
      else begin
        let lits = clause_lits.!(ci) in
        if lits.!(0) = falsified then begin
          lits.!(0) <- other;
          lits.!(1) <- falsified
        end;
        (* find a new literal to watch *)
        let len = Array.length lits in
        let k = ref 2 in
        while !k < len && lit_false assign lits.!(!k) do
          incr k
        done;
        if !k < len then begin
          let nl = lits.!(!k) in
          lits.!(1) <- nl;
          lits.!(!k) <- falsified;
          wx.!(ci) <- other lxor nl;
          watch t nl ci
        end
        else begin
          kept.!(!nk) <- ci;
          incr nk;
          if lit_false assign other then conflict := ci (* every literal false *)
          else enqueue t other ci (* unit *)
        end
      end
    done;
    (* unvisited watchers (positions 0..!i) move up above the kept ones *)
    let rest = !i + 1 and nk = !nk in
    if rest > 0 then Array.blit ws 0 ws nk rest;
    for j = 0 to nk - 1 do
      ws.!(j) <- kept.!(j)
    done;
    t.watch_size.!(falsified) <- nk + rest
  done;
  !conflict

(* ---------- activity ---------- *)

let var_decay = 0.95
let cla_decay = 0.999

let[@inline] bump_var t v =
  let act = t.activity in
  act.!(v) <- act.!(v) +. t.var_inc;
  if act.!(v) > 1e100 then begin
    for i = 1 to t.nvars do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  heap_update t v

(* Clause activities need the same rescale guard as variables:
   [cla_inc] grows by 1/cla_decay every conflict, so an unguarded sum
   reaches infinity (then NaN on further arithmetic) on long solves,
   which would scramble the activity tie-break of [reduce_db]. *)
let bump_clause t ci =
  let act = t.cl_activity in
  act.!(ci) <- act.!(ci) +. t.cla_inc;
  if act.!(ci) > 1e20 then begin
    for i = 0 to t.n_clauses - 1 do
      if t.learnt.(i) then act.(i) <- act.(i) *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let decay_activities t =
  t.var_inc <- t.var_inc /. var_decay;
  t.cla_inc <- t.cla_inc /. cla_decay

(* ---------- conflict analysis (first UIP) ---------- *)

(* Returns (learnt clause, backjump level, lbd).  Everything but the
   learnt clause itself lives in persistent scratch: [seen] (every var
   marked here is unmarked before returning, through [to_clear]), the
   non-UIP literals in [learnt_buf] in discovery order, and the LBD
   count in [level_stamp], where a level counts once per analysis
   because it is stamped with this analysis's fresh [stamp].  The
   learnt clause is the UIP's negation followed by the other literals
   newest first. *)
let analyze t confl =
  let seen = t.seen and level = t.level and trail = t.trail in
  let learnt = t.learnt_buf and to_clear = t.to_clear in
  let dl = decision_level t in
  let n_learnt = ref 0 and n_clear = ref 0 in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (t.trail_size - 1) in
  let backtrack_level = ref 0 in
  let continue_loop = ref true in
  while !continue_loop do
    let ci = !confl in
    if t.learnt.!(ci) then bump_clause t ci;
    let lits = t.lits.!(ci) in
    for i = (if !p = -1 then 0 else 1) to Array.length lits - 1 do
      let q = lits.!(i) in
      let v = var_of q in
      if (not seen.!(v)) && level.!(v) > 0 then begin
        seen.!(v) <- true;
        to_clear.!(!n_clear) <- v;
        incr n_clear;
        bump_var t v;
        if level.!(v) >= dl then incr counter
        else begin
          learnt.!(!n_learnt) <- q;
          incr n_learnt;
          if level.!(v) > !backtrack_level then backtrack_level := level.!(v)
        end
      end
    done;
    (* pick next literal to look at from the trail *)
    while not seen.!(var_of trail.!(!index)) do
      decr index
    done;
    let pl = trail.!(!index) in
    p := pl;
    decr index;
    decr counter;
    seen.!(var_of pl) <- false;
    (* a seen literal above level 0 on the trail inside the current
       level always has a reason unless it is the decision; the
       decision is reached exactly when counter = 0 *)
    if !counter > 0 then confl := t.reason.!(var_of pl) else continue_loop := false
  done;
  let n = !n_learnt in
  let learnt_lits = Array.make (n + 1) (negate !p) in
  for i = 1 to n do
    learnt_lits.!(i) <- learnt.!(n - i)
  done;
  (* LBD: distinct decision levels among the learnt literals.  The
     asserting literal sits at the (current) conflict level; the rest
     keep their levels across the backjump. *)
  if Array.length t.level_stamp <= dl then
    t.level_stamp <- grow_int_array t.level_stamp (max (dl + 1) (2 * Array.length t.level_stamp)) 0;
  let stamps = t.level_stamp in
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  stamps.(dl) <- stamp;
  let lbd = ref 1 in
  for i = 0 to n - 1 do
    let lv = level.!(var_of learnt.!(i)) in
    if stamps.!(lv) <> stamp then begin
      stamps.!(lv) <- stamp;
      incr lbd
    end
  done;
  for i = 0 to !n_clear - 1 do
    seen.!(to_clear.!(i)) <- false
  done;
  (learnt_lits, !backtrack_level, !lbd)

(* ---------- clause addition ---------- *)

(* Copies [lits] into [add_buf] from position [n]; returns the count. *)
let rec copy_lits t n = function
  | [] -> n
  | l :: rest ->
      if var_of l > t.nvars || var_of l < 1 then invalid_arg "Sat.add_clause: unknown variable";
      if n = Array.length t.add_buf then t.add_buf <- grow_int_array t.add_buf (2 * n) 0;
      t.add_buf.(n) <- l;
      copy_lits t (n + 1) rest

(* The literals are copied into the [add_buf] scratch and
   insertion-sorted there, dropping repeats as they meet, so the stored
   clause is ascending.  [l] and [negate l] differ only in the low bit,
   so no literal sorts between them and a tautology shows as an
   adjacent pair.  Root-false literals are then filtered out in place;
   at the root every assigned literal is root-true or root-false, so a
   single literal left over is unassigned. *)
let add_clause t lits =
  let n = copy_lits t 0 lits in
  if t.ok then begin
    (* clauses are added at the root level; drop any leftover
       assignment trail from a previous solve call *)
    cancel_until t 0;
    let a = t.add_buf in
    (* a.(0 .. m-1) holds the sorted distinct literals seen so far *)
    let m = ref 0 in
    for i = 0 to n - 1 do
      let l = a.(i) in
      let j = ref (!m - 1) in
      while !j >= 0 && a.(!j) > l do
        decr j
      done;
      if !j < 0 || a.(!j) <> l then begin
        for k = !m downto !j + 2 do
          a.(k) <- a.(k - 1)
        done;
        a.(!j + 1) <- l;
        incr m
      end
    done;
    let taut = ref false in
    for i = 0 to !m - 2 do
      if a.(i + 1) = negate a.(i) then taut := true
    done;
    if not !taut then begin
      let n_kept = ref 0 and sat_already = ref false in
      for i = 0 to !m - 1 do
        let l = a.(i) in
        if root_true t l then sat_already := true
        else if not (root_false t l) then begin
          a.(!n_kept) <- l;
          incr n_kept
        end
      done;
      if not !sat_already then
        match !n_kept with
        | 0 -> t.ok <- false
        | 1 ->
            enqueue t a.(0) (-1);
            if propagate t >= 0 then t.ok <- false
        | k ->
            let lits = Array.sub a 0 k in
            let ci = push_clause t lits ~learnt:false ~activity:0.0 ~lbd:0 in
            watch t lits.(0) ci;
            watch t lits.(1) ci
    end
  end

let add_learnt t lits lbd =
  match Array.length lits with
  | 1 ->
      enqueue t lits.(0) (-1)
  | _ ->
      (* position a literal of the backtrack level at index 1 *)
      let max_i = ref 1 in
      for i = 2 to Array.length lits - 1 do
        if t.level.(var_of lits.(i)) > t.level.(var_of lits.(!max_i)) then max_i := i
      done;
      let tmp = lits.(1) in
      lits.(1) <- lits.(!max_i);
      lits.(!max_i) <- tmp;
      let ci = push_clause t lits ~learnt:true ~activity:t.cla_inc ~lbd in
      watch t lits.(0) ci;
      watch t lits.(1) ci;
      enqueue t lits.(0) ci

(* ---------- clause-DB maintenance (root level only) ---------- *)

(* Both entry points require decision level 0 with propagation
   complete; both compact the clause store and rebuild the watch
   stacks and watched pairs, remapping reason indices through the
   compaction map.  Every stack is rebuilt in ascending clause order,
   so it depends only on each clause's watched pair, not on which of
   positions 0 and 1 holds which literal. *)

let compact t keep =
  let map = Array.make (max 1 t.n_clauses) (-1) in
  let j = ref 0 in
  let learnts = ref 0 in
  for i = 0 to t.n_clauses - 1 do
    if keep.(i) then begin
      map.(i) <- !j;
      t.lits.(!j) <- t.lits.(i);
      t.learnt.(!j) <- t.learnt.(i);
      t.cl_activity.(!j) <- t.cl_activity.(i);
      t.lbd.(!j) <- t.lbd.(i);
      if t.learnt.(i) then incr learnts;
      incr j
    end
  done;
  t.n_clauses <- !j;
  t.n_learnts <- !learnts;
  for v = 1 to t.nvars do
    let r = t.reason.(v) in
    if r >= 0 then t.reason.(v) <- map.(r)
  done;
  Array.fill t.watch_size 0 (Array.length t.watch_size) 0;
  for ci = 0 to t.n_clauses - 1 do
    let lits = t.lits.(ci) in
    t.wx.(ci) <- lits.(0) lxor lits.(1);
    watch t lits.(0) ci;
    watch t lits.(1) ci
  done

(* A clause is locked while it is the reason of its asserted first
   literal: reduction must never drop it or analysis would chase a
   dangling reason. *)
let locked t ci =
  let v = var_of t.lits.(ci).(0) in
  t.assign.(v) <> v_undef && t.reason.(v) = ci

(* Root-level simplification: delete clauses satisfied at level 0 —
   the mechanism that reclaims clause groups retired by a fixed
   activation literal — and strip root-false literals elsewhere.
   Reasons of root-assigned variables are detached first (conflict
   analysis never crosses level 0), so a root-satisfied reason clause
   can be deleted too. *)
let simplify t =
  if t.ok && decision_level t = 0 && t.qhead = t.trail_size then begin
    for i = 0 to t.trail_size - 1 do
      t.reason.(var_of t.trail.(i)) <- -1
    done;
    let keep = Array.make (max 1 t.n_clauses) true in
    for ci = 0 to t.n_clauses - 1 do
      let old = t.lits.(ci) in
      let sat = ref false and n_false = ref 0 in
      for i = 0 to Array.length old - 1 do
        if root_true t old.(i) then sat := true else if root_false t old.(i) then incr n_false
      done;
      if !sat then keep.(ci) <- false
      else if !n_false > 0 then begin
        let lits = Array.make (Array.length old - !n_false) 0 in
        let k = ref 0 in
        for i = 0 to Array.length old - 1 do
          if not (root_false t old.(i)) then begin
            lits.(!k) <- old.(i);
            incr k
          end
        done;
        (* propagation being complete at the root rules out 0- and
           1-literal leftovers (they would have conflicted or
           propagated); stay defensive anyway *)
        if Array.length lits >= 2 then t.lits.(ci) <- lits
        else if Array.length lits = 1 then begin
          keep.(ci) <- false;
          if lit_value t lits.(0) = v_undef then enqueue t lits.(0) (-1)
        end
        else begin
          keep.(ci) <- false;
          t.ok <- false
        end
      end
    done;
    compact t keep;
    if propagate t >= 0 then t.ok <- false;
    t.simp_assigns <- t.trail_size
  end

(* Learnt-DB reduction: drop roughly half of the reducible learnt
   clauses — worst (highest LBD, then lowest activity) first — keeping
   every glue clause (LBD <= 2) and every locked clause. *)
let reduce_db t =
  if t.ok && decision_level t = 0 && t.qhead = t.trail_size then begin
    t.reduces <- t.reduces + 1;
    let reducible = ref [] in
    for ci = 0 to t.n_clauses - 1 do
      if t.learnt.(ci) && t.lbd.(ci) > 2 && not (locked t ci) then reducible := ci :: !reducible
    done;
    let lbd = t.lbd and act = t.cl_activity in
    let order =
      List.sort
        (fun a b ->
          if lbd.(a) <> lbd.(b) then compare lbd.(b) lbd.(a) (* higher LBD first *)
          else if act.(a) <> act.(b) then compare act.(a) act.(b)
          else compare a b)
        !reducible
    in
    let n_drop = List.length order / 2 in
    let keep = Array.make (max 1 t.n_clauses) true in
    List.iteri (fun i ci -> if i < n_drop then keep.(ci) <- false) order;
    compact t keep;
    t.max_learnts <- t.max_learnts + (t.max_learnts / 2)
  end

(* Internal-consistency audit for the test suite: every reason index
   must point at a live clause whose first literal is the implied one;
   every stored clause must sit exactly once on each of its two watched
   literals' stacks and nowhere else, and its [wx] entry must be the
   xor of that pair. *)
let self_check t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  for v = 1 to t.nvars do
    let r = t.reason.(v) in
    if r >= 0 then
      if r >= t.n_clauses then err "var %d: reason %d out of range" v r
      else begin
        let lits = t.lits.(r) in
        if Array.length lits = 0 || var_of lits.(0) <> v then
          err "var %d: reason clause %d does not assert it" v r;
        if t.assign.(v) = v_undef then err "var %d: unassigned but has a reason" v
      end
  done;
  (* occurrences of each clause on the stacks of lits.(0) and lits.(1) *)
  let on0 = Array.make (max 1 t.n_clauses) 0 and on1 = Array.make (max 1 t.n_clauses) 0 in
  Array.iteri
    (fun l ws ->
      for i = 0 to t.watch_size.(l) - 1 do
        let ci = ws.(i) in
        if ci < 0 || ci >= t.n_clauses then err "watch stack %d: clause %d out of range" l ci
        else begin
          let lits = t.lits.(ci) in
          let watches_at pos = Array.length lits > pos && lits.(pos) = l in
          if watches_at 0 then on0.(ci) <- on0.(ci) + 1
          else if watches_at 1 then on1.(ci) <- on1.(ci) + 1
          else err "watch stack %d: clause %d does not watch it" l ci
        end
      done)
    t.watches;
  for ci = 0 to t.n_clauses - 1 do
    let lits = t.lits.(ci) in
    if Array.length lits < 2 then err "clause %d: fewer than 2 literals" ci
    else begin
      if lits.(0) = lits.(1) then err "clause %d: watches one literal twice" ci;
      if on0.(ci) <> 1 then err "clause %d: on lit 0's stack %d times" ci on0.(ci);
      if on1.(ci) <> 1 then err "clause %d: on lit 1's stack %d times" ci on1.(ci);
      if t.wx.(ci) <> lits.(0) lxor lits.(1) then err "clause %d: stale watched pair" ci
    end;
    (* the rescale guards must keep every activity finite — inf/nan
       here would poison the reduce_db sort ordering *)
    if not (Float.is_finite t.cl_activity.(ci)) then err "clause %d: non-finite activity" ci
  done;
  for v = 1 to t.nvars do
    if not (Float.is_finite t.activity.(v)) then err "var %d: non-finite activity" v
  done;
  List.rev !errs

(* ---------- Luby restarts ---------- *)

let luby x =
  (* Luby sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
  let rec find_size size seq = if size < x + 1 then find_size ((2 * size) + 1) (seq + 1) else (size, seq) in
  let rec down x size seq =
    if size - 1 = x then 1 lsl seq
    else begin
      let size = (size - 1) / 2 in
      down (x mod size) size (seq - 1)
    end
  in
  let size, seq = find_size 1 0 in
  down x size seq

(* ---------- convergence tallies ---------- *)

let ilog2 v =
  let k = ref 0 and v = ref v in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

(* Per-conflict distribution bookkeeping: learnt-clause LBD (exact,
   tail at 63), trail depth and propagations-per-decision since the
   previous conflict (both log2-bucketed).  A handful of array bumps
   per conflict — noise next to the analysis that precedes them. *)
let tally_conflict t lbd =
  let li = if lbd < 63 then lbd else 63 in
  t.lbd_counts.(li) <- t.lbd_counts.(li) + 1;
  let ti = min 63 (ilog2 (max 1 t.trail_size)) in
  t.trail_counts.(ti) <- t.trail_counts.(ti) + 1;
  let dp = t.propagations - t.ppd_props and dd = t.decisions - t.ppd_decs in
  let pi = min 63 (ilog2 (max 1 (dp / max 1 dd))) in
  t.ppd_counts.(pi) <- t.ppd_counts.(pi) + 1;
  t.ppd_props <- t.propagations;
  t.ppd_decs <- t.decisions

(* ---------- main search ---------- *)

let solve ?(max_conflicts = max_int) ?(should_stop = fun () -> false) ?(assumptions = []) t =
  List.iter
    (fun a -> if var_of a < 1 || var_of a > t.nvars then invalid_arg "Sat.solve: unknown assumption variable")
    assumptions;
  if not t.ok then Unsat
  else begin
    cancel_until t 0;
    if propagate t >= 0 then begin
      t.ok <- false;
      Unsat
    end
    else begin
      let assumps = Array.of_list assumptions in
      if t.trail_size > t.simp_assigns then simplify t;
      if not t.ok then Unsat
      else begin
        let start_conflicts = t.conflicts in
        let result = ref Unknown in
        let finished = ref false in
        let restart_count = ref 0 in
        (* wall-clock polling, amortised: consult [should_stop] every few
           hundred loop iterations so the hook stays off the hot path *)
        let polls = ref 0 in
        let stop_requested = ref false in
        let poll_stop () =
          if not !stop_requested then begin
            incr polls;
            if !polls land 255 = 0 && should_stop () then stop_requested := true
          end;
          !stop_requested
        in
        while not !finished do
          let budget = 100 * luby !restart_count in
          incr restart_count;
          let local_conflicts = ref 0 in
          let restart_now = ref false in
          while not (!finished || !restart_now) do
            let confl = propagate t in
            if confl >= 0 then begin
              t.conflicts <- t.conflicts + 1;
              incr local_conflicts;
              if decision_level t = 0 then begin
                t.ok <- false;
                result := Unsat;
                finished := true
              end
              else begin
                let learnt, back_level, lbd = analyze t confl in
                tally_conflict t lbd;
                cancel_until t back_level;
                add_learnt t learnt lbd;
                decay_activities t
              end
            end
            else if t.conflicts - start_conflicts >= max_conflicts || poll_stop () then begin
              result := Unknown;
              finished := true
            end
            else if !local_conflicts >= budget then restart_now := true
            else begin
              (* assumption cursor: the decision level doubles as the
                 index of the next assumption to establish, so the
                 prefix is maintained in O(1) per decision — no scan of
                 the assumption list *)
              let dl = decision_level t in
              if dl < Array.length assumps then begin
                let a = assumps.(dl) in
                let v = lit_value t a in
                if v = v_true then
                  (* already implied: dedicate an empty level so the
                     cursor stays aligned with the decision level *)
                  new_decision_level t
                else if v = v_false then begin
                  result := Unsat;
                  finished := true
                end
                else begin
                  new_decision_level t;
                  enqueue t a (-1)
                end
              end
              else begin
                let rec pick () =
                  let v = heap_pop t in
                  if v = -1 then -1 else if t.assign.(v) = v_undef then v else pick ()
                in
                let v = pick () in
                if v = -1 then begin
                  result := Sat;
                  finished := true
                end
                else begin
                  t.decisions <- t.decisions + 1;
                  new_decision_level t;
                  enqueue t (if t.phase.(v) then pos v else neg v) (-1)
                end
              end
            end
          done;
          if !restart_now then begin
            t.restarts <- t.restarts + 1;
            cancel_until t 0;
            if propagate t >= 0 then begin
              t.ok <- false;
              result := Unsat;
              finished := true
            end
            else begin
              if t.trail_size > t.simp_assigns then simplify t;
              if t.n_learnts > t.max_learnts then reduce_db t;
              if not t.ok then begin
                result := Unsat;
                finished := true
              end
            end
          end
        done;
        !result
      end
    end
  end

let stats t : stats =
  {
    conflicts = t.conflicts;
    decisions = t.decisions;
    propagations = t.propagations;
    restarts = t.restarts;
    reduces = t.reduces;
    learnts = t.n_learnts;
    lbd = Array.copy t.lbd_counts;
    trail_depth = Array.copy t.trail_counts;
    props_per_decision = Array.copy t.ppd_counts;
  }
