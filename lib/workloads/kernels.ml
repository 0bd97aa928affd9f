(* The kernel library: loop bodies of the benchmarks the surveyed
   papers map (DSP/multimedia inner loops), built directly as DFGs with
   loop-carried edges and paired with reference semantics for
   end-to-end functional verification.

   Each kernel provides: the DFG, the init values of its recurrences,
   input streams for a given trip count, and the names of its outputs
   so the simulator's streams can be compared with the interpreter's. *)

open Ocgra_dfg

type t = {
  name : string;
  description : string;
  dfg : Dfg.t;
  init : int -> int; (* initial (iteration -1) value per node *)
  inputs : int -> (string * int array) list; (* trip count -> streams *)
  memory : (string * int array) list; (* named arrays *)
  outputs : string list;
  has_branch : bool; (* contains if-converted control flow *)
}

let no_init (_ : int) = 0

(* Deterministic pseudo-input streams. *)
let stream n f = Array.init n f

(* ---------- dot product: the Fig. 3 kernel ----------
   for i: sum += A[i] * B[i]
   recurrence on sum (RecMII = 1 with single-cycle add). *)
let dot_product () =
  let g = Dfg.create () in
  let a = Dfg.input g "a" in
  let b = Dfg.input g "b" in
  let m = Dfg.binop g Op.Mul a b in
  let acc = Dfg.add ~name:"sum" g (Op.Binop Op.Add) in
  Dfg.add_edge g ~src:m ~dst:acc ~port:0;
  Dfg.add_edge g ~src:acc ~dst:acc ~port:1 ~dist:1;
  ignore (Dfg.output g "sum" acc);
  {
    name = "dot-product";
    description = "sum += a[i] * b[i] (Fig. 3 kernel)";
    dfg = g;
    init = no_init;
    inputs = (fun n -> [ ("a", stream n (fun i -> i + 1)); ("b", stream n (fun i -> (2 * i) - 3)) ]);
    memory = [];
    outputs = [ "sum" ];
    has_branch = false;
  }

(* ---------- saxpy: y[i] = alpha * x[i] + y[i] ---------- *)
let saxpy () =
  let g = Dfg.create () in
  let alpha = Dfg.const g 7 in
  let x = Dfg.input g "x" in
  let y = Dfg.input g "y" in
  let ax = Dfg.binop g Op.Mul alpha x in
  let r = Dfg.binop g Op.Add ax y in
  ignore (Dfg.output g "out" r);
  {
    name = "saxpy";
    description = "out[i] = 7 * x[i] + y[i]";
    dfg = g;
    init = no_init;
    inputs = (fun n -> [ ("x", stream n (fun i -> i - 4)); ("y", stream n (fun i -> 3 * i)) ]);
    memory = [];
    outputs = [ "out" ];
    has_branch = false;
  }

(* ---------- FIR filter, 4 taps on a shifting window ----------
   out = c0*x[i] + c1*x[i-1] + c2*x[i-2] + c3*x[i-3]
   The delayed samples are loop-carried edges from the input node. *)
let fir4 () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let c0 = Dfg.const g 3 and c1 = Dfg.const g (-1) and c2 = Dfg.const g 4 and c3 = Dfg.const g 2 in
  let t0 = Dfg.binop g Op.Mul c0 x in
  let t1 = Dfg.add g (Op.Binop Op.Mul) in
  Dfg.add_edge g ~src:c1 ~dst:t1 ~port:0;
  Dfg.add_edge g ~src:x ~dst:t1 ~port:1 ~dist:1;
  let t2 = Dfg.add g (Op.Binop Op.Mul) in
  Dfg.add_edge g ~src:c2 ~dst:t2 ~port:0;
  Dfg.add_edge g ~src:x ~dst:t2 ~port:1 ~dist:2;
  let t3 = Dfg.add g (Op.Binop Op.Mul) in
  Dfg.add_edge g ~src:c3 ~dst:t3 ~port:0;
  Dfg.add_edge g ~src:x ~dst:t3 ~port:1 ~dist:3;
  let s1 = Dfg.binop g Op.Add t0 t1 in
  let s2 = Dfg.binop g Op.Add t2 t3 in
  let s = Dfg.binop g Op.Add s1 s2 in
  ignore (Dfg.output g "y" s);
  {
    name = "fir4";
    description = "4-tap FIR on a shifting window";
    dfg = g;
    init = no_init;
    inputs = (fun n -> [ ("x", stream n (fun i -> (i * i mod 17) - 5)) ]);
    memory = [];
    outputs = [ "y" ];
    has_branch = false;
  }

(* ---------- IIR biquad-ish: y = x + a*y@1 + b*y@2 ----------
   two-deep recurrence: RecMII > 1 territory when latencies add up. *)
let iir2 () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let a = Dfg.const g 2 and b = Dfg.const g (-1) in
  let ay = Dfg.add g (Op.Binop Op.Mul) in
  let y = Dfg.add ~name:"y" g (Op.Binop Op.Add) in
  let by = Dfg.add g (Op.Binop Op.Mul) in
  let s = Dfg.binop g Op.Add ay by in
  Dfg.add_edge g ~src:a ~dst:ay ~port:0;
  Dfg.add_edge g ~src:y ~dst:ay ~port:1 ~dist:1;
  Dfg.add_edge g ~src:b ~dst:by ~port:0;
  Dfg.add_edge g ~src:y ~dst:by ~port:1 ~dist:2;
  Dfg.add_edge g ~src:x ~dst:y ~port:0;
  Dfg.add_edge g ~src:s ~dst:y ~port:1;
  ignore (Dfg.output g "y" y);
  {
    name = "iir2";
    description = "order-2 IIR recurrence y = x + 2*y[-1] - y[-2]";
    dfg = g;
    init = no_init;
    inputs = (fun n -> [ ("x", stream n (fun i -> (i mod 5) - 2)) ]);
    memory = [];
    outputs = [ "y" ];
    has_branch = false;
  }

(* ---------- 3x3 convolution row (Sobel-like) over memory ----------
   loads three neighbours with computed addresses, weights, stores. *)
let sobel_row () =
  let g = Dfg.create () in
  let i = Dfg.input g "i" in
  let one = Dfg.const g 1 in
  let two = Dfg.const g 2 in
  let l0 = Dfg.load g "img" i in
  let i1 = Dfg.binop g Op.Add i one in
  let l1 = Dfg.load g "img" i1 in
  let i2 = Dfg.binop g Op.Add i two in
  let l2 = Dfg.load g "img" i2 in
  let w0 = Dfg.binop g Op.Mul l0 one in
  let w1 = Dfg.binop g Op.Mul l1 two in
  let s01 = Dfg.binop g Op.Add w0 w1 in
  let s = Dfg.binop g Op.Add s01 l2 in
  ignore (Dfg.store g "out" i s);
  ignore (Dfg.output g "edge" s);
  {
    name = "sobel-row";
    description = "1x3 convolution with loads/stores (memory-bound)";
    dfg = g;
    init = no_init;
    inputs = (fun n -> [ ("i", stream n (fun i -> i)) ]);
    memory =
      [ ("img", Array.init 64 (fun k -> (k * 7 mod 23) - 11)); ("out", Array.make 64 0) ];
    outputs = [ "edge" ];
    has_branch = false;
  }

(* ---------- Horner polynomial evaluation (serial chain) ----------
   acc = acc * x + c[i]; long recurrence chain = RecMII stress. *)
let horner () =
  let g = Dfg.create () in
  let x = Dfg.const g 3 in
  let c = Dfg.input g "c" in
  let mul = Dfg.add ~name:"acc*x" g (Op.Binop Op.Mul) in
  let acc = Dfg.add ~name:"acc" g (Op.Binop Op.Add) in
  Dfg.add_edge g ~src:acc ~dst:mul ~port:0 ~dist:1;
  Dfg.add_edge g ~src:x ~dst:mul ~port:1;
  Dfg.add_edge g ~src:mul ~dst:acc ~port:0;
  Dfg.add_edge g ~src:c ~dst:acc ~port:1;
  ignore (Dfg.output g "acc" acc);
  {
    name = "horner";
    description = "acc = acc * 3 + c[i] (serial recurrence, RecMII = 2)";
    dfg = g;
    init = no_init;
    inputs = (fun n -> [ ("c", stream n (fun i -> (i mod 7) - 3)) ]);
    memory = [];
    outputs = [ "acc" ];
    has_branch = false;
  }

(* ---------- FFT butterfly (radix-2, integer) ---------- *)
let butterfly () =
  let g = Dfg.create () in
  let ar = Dfg.input g "ar" and ai = Dfg.input g "ai" in
  let br = Dfg.input g "br" and bi = Dfg.input g "bi" in
  let wr = Dfg.const g 3 and wi = Dfg.const g (-2) in
  let t1 = Dfg.binop g Op.Mul br wr in
  let t2 = Dfg.binop g Op.Mul bi wi in
  let t3 = Dfg.binop g Op.Mul br wi in
  let t4 = Dfg.binop g Op.Mul bi wr in
  let tr = Dfg.binop g Op.Sub t1 t2 in
  let ti = Dfg.binop g Op.Add t3 t4 in
  ignore (Dfg.output g "xr" (Dfg.binop g Op.Add ar tr));
  ignore (Dfg.output g "xi" (Dfg.binop g Op.Add ai ti));
  ignore (Dfg.output g "yr" (Dfg.binop g Op.Sub ar tr));
  ignore (Dfg.output g "yi" (Dfg.binop g Op.Sub ai ti));
  {
    name = "fft-butterfly";
    description = "radix-2 FFT butterfly (wide, multiplier-heavy)";
    dfg = g;
    init = no_init;
    inputs =
      (fun n ->
        [
          ("ar", stream n (fun i -> i));
          ("ai", stream n (fun i -> i - 7));
          ("br", stream n (fun i -> (3 * i) + 1));
          ("bi", stream n (fun i -> 5 - i));
        ]);
    memory = [];
    outputs = [ "xr"; "xi"; "yr"; "yi" ];
    has_branch = false;
  }

(* ---------- running max with if-conversion (Select) ---------- *)
let running_max () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let best = Dfg.add ~name:"best" g Op.Select in
  let gt = Dfg.add g (Op.Binop Op.Lt) in
  (* gt = best@1 < x *)
  Dfg.add_edge g ~src:best ~dst:gt ~port:0 ~dist:1;
  Dfg.add_edge g ~src:x ~dst:gt ~port:1;
  Dfg.add_edge g ~src:gt ~dst:best ~port:0;
  Dfg.add_edge g ~src:x ~dst:best ~port:1;
  Dfg.add_edge g ~src:best ~dst:best ~port:2 ~dist:1;
  ignore (Dfg.output g "max" best);
  {
    name = "running-max";
    description = "best = best < x ? x : best (if-converted branch)";
    dfg = g;
    init = (fun _ -> min_int / 4);
    inputs = (fun n -> [ ("x", stream n (fun i -> (i * 13 mod 31) - 15)) ]);
    memory = [];
    outputs = [ "max" ];
    has_branch = true;
  }

(* ---------- vector absolute difference with branch ----------
   out = |a - b| via if-conversion. *)
let absdiff () =
  let g = Dfg.create () in
  let a = Dfg.input g "a" and b = Dfg.input g "b" in
  let d = Dfg.binop g Op.Sub a b in
  let nd = Dfg.unop g Op.Neg d in
  let zero = Dfg.const g 0 in
  let isneg = Dfg.binop g Op.Lt d zero in
  let r = Dfg.select g isneg nd d in
  ignore (Dfg.output g "out" r);
  {
    name = "absdiff";
    description = "out = |a[i] - b[i]| (if-converted)";
    dfg = g;
    init = no_init;
    inputs = (fun n -> [ ("a", stream n (fun i -> i mod 9)); ("b", stream n (fun i -> (i * 3) mod 11)) ]);
    memory = [];
    outputs = [ "out" ];
    has_branch = true;
  }

(* ---------- mix round: shift/xor heavy (crypto-ish) ---------- *)
let mix_round () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let k = Dfg.const g 0x5bd1 in
  let c13 = Dfg.const g 13 and c7 = Dfg.const g 7 in
  let s1 = Dfg.binop g Op.Shl x c13 in
  let x1 = Dfg.binop g Op.Xor x s1 in
  let s2 = Dfg.binop g Op.Shr x1 c7 in
  let x2 = Dfg.binop g Op.Xor x1 s2 in
  let h = Dfg.add ~name:"h" g (Op.Binop Op.Xor) in
  let hk = Dfg.add g (Op.Binop Op.Mul) in
  Dfg.add_edge g ~src:h ~dst:hk ~port:0 ~dist:1;
  Dfg.add_edge g ~src:k ~dst:hk ~port:1;
  Dfg.add_edge g ~src:x2 ~dst:h ~port:0;
  Dfg.add_edge g ~src:hk ~dst:h ~port:1;
  ignore (Dfg.output g "h" h);
  {
    name = "mix-round";
    description = "xorshift mix with multiplicative chaining";
    dfg = g;
    init = (fun _ -> 1);
    inputs = (fun n -> [ ("x", stream n (fun i -> i * 2654435761)) ]);
    memory = [];
    outputs = [ "h" ];
    has_branch = false;
  }

(* ---------- matvec row: acc over 2 columns, unrolled flavour ---------- *)
let matvec2 () =
  let g = Dfg.create () in
  let a0 = Dfg.input g "a0" and a1 = Dfg.input g "a1" in
  let x0 = Dfg.const g 5 and x1 = Dfg.const g (-3) in
  let m0 = Dfg.binop g Op.Mul a0 x0 in
  let m1 = Dfg.binop g Op.Mul a1 x1 in
  let s = Dfg.binop g Op.Add m0 m1 in
  let acc = Dfg.add ~name:"acc" g (Op.Binop Op.Add) in
  Dfg.add_edge g ~src:s ~dst:acc ~port:0;
  Dfg.add_edge g ~src:acc ~dst:acc ~port:1 ~dist:1;
  ignore (Dfg.output g "acc" acc);
  {
    name = "matvec2";
    description = "row-of-matrix dot with 2 columns per iteration";
    dfg = g;
    init = no_init;
    inputs =
      (fun n -> [ ("a0", stream n (fun i -> i - 1)); ("a1", stream n (fun i -> 2 - i)) ]);
    memory = [];
    outputs = [ "acc" ];
    has_branch = false;
  }

(* ---------- prefix sum with stores ---------- *)
let prefix_sum () =
  let g = Dfg.create () in
  let i = Dfg.input g "i" in
  let x = Dfg.load g "src" i in
  let acc = Dfg.add ~name:"acc" g (Op.Binop Op.Add) in
  Dfg.add_edge g ~src:x ~dst:acc ~port:0;
  Dfg.add_edge g ~src:acc ~dst:acc ~port:1 ~dist:1;
  ignore (Dfg.store g "dst" i acc);
  ignore (Dfg.output g "acc" acc);
  {
    name = "prefix-sum";
    description = "dst[i] = dst[i-1] + src[i] via accumulator";
    dfg = g;
    init = no_init;
    inputs = (fun n -> [ ("i", stream n (fun i -> i)) ]);
    memory = [ ("src", Array.init 64 (fun k -> (k mod 13) - 6)); ("dst", Array.make 64 0) ];
    outputs = [ "acc" ];
    has_branch = false;
  }

(* ---------- complex multiply-accumulate ----------
   (cr, ci) += (ar, ai) * (br, bi): the EVM/radar workhorse. *)
let cmac () =
  let g = Dfg.create () in
  let ar = Dfg.input g "ar" and ai = Dfg.input g "ai" in
  let br = Dfg.input g "br" and bi = Dfg.input g "bi" in
  let rr = Dfg.binop g Op.Sub (Dfg.binop g Op.Mul ar br) (Dfg.binop g Op.Mul ai bi) in
  let ri = Dfg.binop g Op.Add (Dfg.binop g Op.Mul ar bi) (Dfg.binop g Op.Mul ai br) in
  let cr = Dfg.add ~name:"cr" g (Op.Binop Op.Add) in
  Dfg.add_edge g ~src:rr ~dst:cr ~port:0;
  Dfg.add_edge g ~src:cr ~dst:cr ~port:1 ~dist:1;
  let ci = Dfg.add ~name:"ci" g (Op.Binop Op.Add) in
  Dfg.add_edge g ~src:ri ~dst:ci ~port:0;
  Dfg.add_edge g ~src:ci ~dst:ci ~port:1 ~dist:1;
  ignore (Dfg.output g "cr" cr);
  ignore (Dfg.output g "ci" ci);
  {
    name = "cmac";
    description = "complex multiply-accumulate (two coupled accumulators)";
    dfg = g;
    init = no_init;
    inputs =
      (fun n ->
        [
          ("ar", stream n (fun i -> (i mod 5) - 2));
          ("ai", stream n (fun i -> (i mod 3) - 1));
          ("br", stream n (fun i -> 4 - (i mod 7)));
          ("bi", stream n (fun i -> (i mod 4) - 2));
        ]);
    memory = [];
    outputs = [ "cr"; "ci" ];
    has_branch = false;
  }

(* ---------- 3-tap moving average (adder-only FIR) ---------- *)
let moving_average3 () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let s1 = Dfg.add g (Op.Binop Op.Add) in
  Dfg.add_edge g ~src:x ~dst:s1 ~port:0;
  Dfg.add_edge g ~src:x ~dst:s1 ~port:1 ~dist:1;
  let s2 = Dfg.add g (Op.Binop Op.Add) in
  Dfg.add_edge g ~src:s1 ~dst:s2 ~port:0;
  Dfg.add_edge g ~src:x ~dst:s2 ~port:1 ~dist:2;
  let three = Dfg.const g 3 in
  let avg = Dfg.binop g Op.Div s2 three in
  ignore (Dfg.output g "avg" avg);
  {
    name = "moving-avg3";
    description = "3-tap moving average (adder-only, window in time)";
    dfg = g;
    init = no_init;
    inputs = (fun n -> [ ("x", stream n (fun i -> ((i * 5) mod 23) - 3)) ]);
    memory = [];
    outputs = [ "avg" ];
    has_branch = false;
  }

(* ---------- alpha blend: out = (a*alpha + b*(256-alpha)) >> 8 ---------- *)
let alpha_blend () =
  let g = Dfg.create () in
  let a = Dfg.input g "a" and b = Dfg.input g "b" and alpha = Dfg.input g "alpha" in
  let c256 = Dfg.const g 256 and c8 = Dfg.const g 8 in
  let inv = Dfg.binop g Op.Sub c256 alpha in
  let pa = Dfg.binop g Op.Mul a alpha in
  let pb = Dfg.binop g Op.Mul b inv in
  let s = Dfg.binop g Op.Add pa pb in
  let r = Dfg.binop g Op.Shr s c8 in
  ignore (Dfg.output g "out" r);
  {
    name = "alpha-blend";
    description = "out = (a*alpha + b*(256-alpha)) >> 8 (multimedia DAG)";
    dfg = g;
    init = no_init;
    inputs =
      (fun n ->
        [
          ("a", stream n (fun i -> (i * 11) mod 256));
          ("b", stream n (fun i -> (i * 29) mod 256));
          ("alpha", stream n (fun i -> (i * 7) mod 256));
        ]);
    memory = [];
    outputs = [ "out" ];
    has_branch = false;
  }

(* ---------- 1D 3-tap convolution with store (conv + writeback) ---------- *)
let conv3_store () =
  let g = Dfg.create () in
  let i = Dfg.input g "i" in
  let one = Dfg.const g 1 in
  let l0 = Dfg.load g "sig" i in
  let i1 = Dfg.binop g Op.Add i one in
  let l1 = Dfg.load g "sig" i1 in
  let i2 = Dfg.binop g Op.Add i1 one in
  let l2 = Dfg.load g "sig" i2 in
  let c0 = Dfg.const g 2 and c1 = Dfg.const g 5 and c2 = Dfg.const g (-1) in
  let s =
    Dfg.binop g Op.Add
      (Dfg.binop g Op.Add (Dfg.binop g Op.Mul l0 c0) (Dfg.binop g Op.Mul l1 c1))
      (Dfg.binop g Op.Mul l2 c2)
  in
  ignore (Dfg.store g "res" i s);
  ignore (Dfg.output g "y" s);
  {
    name = "conv3-store";
    description = "3-tap convolution with loads and a store";
    dfg = g;
    init = no_init;
    inputs = (fun n -> [ ("i", stream n (fun i -> i)) ]);
    memory = [ ("sig", Array.init 64 (fun k -> ((k * 3) mod 19) - 9)); ("res", Array.make 64 0) ];
    outputs = [ "y" ];
    has_branch = false;
  }

(* One (name, constructor) table, in library order: [all] builds every
   kernel, [find] builds only the one it names.  Each name must equal
   the [name] field its constructor sets. *)
let table =
  [
    ("dot-product", dot_product); ("saxpy", saxpy); ("fir4", fir4); ("iir2", iir2);
    ("sobel-row", sobel_row); ("horner", horner); ("fft-butterfly", butterfly);
    ("running-max", running_max); ("absdiff", absdiff); ("mix-round", mix_round);
    ("matvec2", matvec2); ("prefix-sum", prefix_sum); ("cmac", cmac);
    ("moving-avg3", moving_average3); ("alpha-blend", alpha_blend);
    ("conv3-store", conv3_store);
  ]

let all () = List.map (fun (_, make) -> make ()) table

let find name =
  match List.assoc_opt name table with
  | Some make -> make ()
  | None -> invalid_arg (Printf.sprintf "Kernels.find: unknown kernel %s" name)

(* Small kernels on which the exact methods finish quickly. *)
let small_suite () = [ dot_product (); saxpy (); horner (); matvec2 (); absdiff () ]

(* The full suite for heuristic comparisons. *)
let full_suite () = all ()

let eval_reference k ~iters =
  let env = Ocgra_dfg.Eval.env_of_streams ~memory:k.memory (k.inputs iters) in
  Ocgra_dfg.Eval.run ~init:k.init k.dfg env ~iters
