(* Deterministic log-bucketed integer histograms.

   The bucket scheme is fixed forever (it is part of the dump format):
   bucket 0 holds all values <= 0, buckets 1..7 hold the exact small
   values 1..7, and every higher octave [2^m, 2^(m+1)) is split into 4
   sub-buckets of width 2^(m-2).  For v >= 8 with m = floor(log2 v):

     bucket(v) = 8 + 4*(m - 3) + ((v lsr (m - 2)) land 3)

   That is HdrHistogram-style: relative error <= 25% per bucket, a
   fixed 248-cell array covering the whole 63-bit int range, and — the
   property everything here is built around — the bucket index of a
   value is a pure function of the value.  Counts land in atomic
   cells, so recording from any number of domains in any order yields
   the same bucket array; quantiles are derived from bucket counts by
   integer arithmetic only.  A histogram dump is therefore
   byte-identical across worker counts whenever the recorded multiset
   of values is (timings recorded into a histogram forfeit that, and
   such histograms must stay out of determinism-checked scenarios).

   Like [Metrics], the registry is an association list behind one
   atomic head with compare-and-set insertion: a name maps to exactly
   one cell forever, without locking. *)

let n_buckets = 248

(* floor(log2 v) for v >= 1 *)
let msb v =
  let k = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then (k := !k + 32; v := !v lsr 32);
  if !v lsr 16 <> 0 then (k := !k + 16; v := !v lsr 16);
  if !v lsr 8 <> 0 then (k := !k + 8; v := !v lsr 8);
  if !v lsr 4 <> 0 then (k := !k + 4; v := !v lsr 4);
  if !v lsr 2 <> 0 then (k := !k + 2; v := !v lsr 2);
  if !v lsr 1 <> 0 then incr k;
  !k

let bucket_of_value v =
  if v <= 0 then 0
  else if v < 8 then v
  else
    let m = msb v in
    8 + (4 * (m - 3)) + ((v lsr (m - 2)) land 3)

(* Smallest value that lands in bucket [b] — the deterministic
   representative used for quantiles and dumps. *)
let bucket_lo b =
  if b <= 7 then b
  else
    let m = 3 + ((b - 8) / 4) and sub = (b - 8) mod 4 in
    (1 lsl m) + (sub lsl (m - 2))

type cell = {
  buckets : int Atomic.t array;
  count : int Atomic.t;
  sum : int Atomic.t;
  vmax : int Atomic.t; (* min_int when empty *)
}

let cell_create () =
  {
    buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
    count = Atomic.make 0;
    sum = Atomic.make 0;
    vmax = Atomic.make min_int;
  }

let cell_record_n c v n =
  if n > 0 then begin
    ignore (Atomic.fetch_and_add c.buckets.(bucket_of_value v) n);
    ignore (Atomic.fetch_and_add c.count n);
    ignore (Atomic.fetch_and_add c.sum (v * n));
    let rec bump () =
      let cur = Atomic.get c.vmax in
      if v > cur && not (Atomic.compare_and_set c.vmax cur v) then bump ()
    in
    bump ()
  end

type summary = { count : int; sum : int; p50 : int; p90 : int; p99 : int; max : int }

(* Quantile by rank over bucket counts: the representative of the
   first bucket whose cumulative count reaches ceil(q% of n).  Pure
   integer arithmetic — no float rounding to drift across platforms. *)
let cell_summary c =
  let counts = Array.map Atomic.get c.buckets in
  let n = Atomic.get c.count in
  if n = 0 then { count = 0; sum = 0; p50 = 0; p90 = 0; p99 = 0; max = 0 }
  else begin
    let quantile pct =
      let target = ((n * pct) + 99) / 100 in
      let acc = ref 0 and res = ref 0 in
      (try
         Array.iteri
           (fun b k ->
             acc := !acc + k;
             if !acc >= target then begin
               res := bucket_lo b;
               raise Exit
             end)
           counts
       with Exit -> ());
      !res
    in
    {
      count = n;
      sum = Atomic.get c.sum;
      p50 = quantile 50;
      p90 = quantile 90;
      p99 = quantile 99;
      max = Atomic.get c.vmax;
    }
  end

(* ---- named registry ---- *)

type t = {
  enabled : bool;
  cells : (string * cell) list Atomic.t;
}

let off = { enabled = false; cells = Atomic.make [] }
let create () = { enabled = true; cells = Atomic.make [] }
let enabled t = t.enabled

let rec cell t name =
  let cells = Atomic.get t.cells in
  match List.assoc_opt name cells with
  | Some c -> c
  | None ->
      let c = cell_create () in
      if Atomic.compare_and_set t.cells cells ((name, c) :: cells) then c
      else cell t name

let observe_n t name v n = if t.enabled && n > 0 then cell_record_n (cell t name) v n
let observe t name v = observe_n t name v 1

let merge ~into src =
  if into.enabled then
    List.iter
      (fun (name, c) ->
        let dst = cell into name in
        Array.iteri
          (fun b k ->
            let k = Atomic.get k in
            if k > 0 then ignore (Atomic.fetch_and_add dst.buckets.(b) k))
          c.buckets;
        let n = Atomic.get c.count in
        if n > 0 then begin
          ignore (Atomic.fetch_and_add dst.count n);
          ignore (Atomic.fetch_and_add dst.sum (Atomic.get c.sum));
          let v = Atomic.get c.vmax in
          let rec bump () =
            let cur = Atomic.get dst.vmax in
            if v > cur && not (Atomic.compare_and_set dst.vmax cur v) then bump ()
          in
          bump ()
        end)
      (Atomic.get src.cells)

let dump t =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (List.filter_map
       (fun (name, c) ->
         let s = cell_summary c in
         if s.count = 0 then None else Some (name, s))
       (Atomic.get t.cells))

(* Summaries flattened to name-sorted integer pairs, ready to ride the
   byte-deterministic metrics exporters. *)
let summary_kvs t =
  List.concat_map
    (fun (name, s) ->
      [
        (name ^ ".count", s.count);
        (name ^ ".max", s.max);
        (name ^ ".p50", s.p50);
        (name ^ ".p90", s.p90);
        (name ^ ".p99", s.p99);
        (name ^ ".sum", s.sum);
      ])
    (dump t)
