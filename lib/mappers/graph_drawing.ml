(* Graph-drawing-based spatial mapping (Yoon et al. [23]): draw the
   DFG with a spring layout in the continuous plane, snap nodes to the
   nearest free capable cell, then pipeline and route strictly.  The
   drawing step globally minimizes edge lengths before any discrete
   commitment, which is the paper's argument against purely greedy
   placement. *)

open Ocgra_dfg
open Ocgra_core
module Rng = Ocgra_util.Rng

let layout (p : Problem.t) rng ~iterations =
  let n = Dfg.node_count p.dfg in
  let rows = p.cgra.Ocgra_arch.Cgra.rows and cols = p.cgra.Ocgra_arch.Cgra.cols in
  let x = Array.init n (fun _ -> Rng.float rng (float_of_int cols)) in
  let y = Array.init n (fun _ -> Rng.float rng (float_of_int rows)) in
  let edges = Dfg.edges p.dfg in
  for _ = 1 to iterations do
    let fx = Array.make n 0.0 and fy = Array.make n 0.0 in
    (* spring attraction along dependences *)
    List.iter
      (fun (e : Dfg.edge) ->
        if e.src <> e.dst then begin
          let dx = x.(e.dst) -. x.(e.src) and dy = y.(e.dst) -. y.(e.src) in
          let d = sqrt ((dx *. dx) +. (dy *. dy)) +. 1e-6 in
          let pull = 0.08 *. (d -. 1.0) in
          fx.(e.src) <- fx.(e.src) +. (pull *. dx /. d);
          fy.(e.src) <- fy.(e.src) +. (pull *. dy /. d);
          fx.(e.dst) <- fx.(e.dst) -. (pull *. dx /. d);
          fy.(e.dst) <- fy.(e.dst) -. (pull *. dy /. d)
        end)
      edges;
    (* pairwise repulsion *)
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let dx = x.(j) -. x.(i) and dy = y.(j) -. y.(i) in
        let d2 = (dx *. dx) +. (dy *. dy) +. 1e-3 in
        let push = 0.15 /. d2 in
        fx.(i) <- fx.(i) -. (push *. dx);
        fy.(i) <- fy.(i) -. (push *. dy);
        fx.(j) <- fx.(j) +. (push *. dx);
        fy.(j) <- fy.(j) +. (push *. dy)
      done
    done;
    for i = 0 to n - 1 do
      x.(i) <- Float.max 0.0 (Float.min (float_of_int cols -. 1e-3) (x.(i) +. fx.(i)));
      y.(i) <- Float.max 0.0 (Float.min (float_of_int rows -. 1e-3) (y.(i) +. fy.(i)))
    done
  done;
  (x, y)

(* Snap nodes (in topological order) to the nearest free capable cell. *)
let snap (p : Problem.t) (x, y) =
  let npe = Ocgra_arch.Cgra.pe_count p.cgra in
  let taken = Array.make npe false in
  let genome = Array.make (Dfg.node_count p.dfg) (-1) in
  let order = Ocgra_graph.Topo.sort_exn (Dfg.to_digraph p.dfg) in
  let ok =
    List.for_all
      (fun v ->
        let best = ref (-1) and best_d = ref infinity in
        for pe = 0 to npe - 1 do
          if (not taken.(pe)) && Ocgra_arch.Cgra.supports p.cgra pe (Dfg.op p.dfg v) then begin
            let r, c = Ocgra_arch.Cgra.coords p.cgra pe in
            let dx = x.(v) -. float_of_int c and dy = y.(v) -. float_of_int r in
            let d = (dx *. dx) +. (dy *. dy) in
            if d < !best_d then begin
              best_d := d;
              best := pe
            end
          end
        done;
        if !best >= 0 then begin
          taken.(!best) <- true;
          genome.(v) <- !best;
          true
        end
        else false)
      order
  in
  if ok then Some genome else None

let mapper =
  Mapper.make ~name:"graph-drawing" ~citation:"Yoon et al. [23]"
    ~scope:Taxonomy.Spatial_mapping ~approach:Taxonomy.Heuristic
    (fun p rng dl obs ->
      let attempts = ref 0 in
      (* up to ten layouts, each snapped to cells and strictly extracted *)
      let m =
        Mapper.tries 10 dl (fun _ ->
            incr attempts;
            Ocgra_obs.Ctx.incr obs "graph_drawing.restarts";
            let pos =
              Ocgra_obs.Ctx.span obs ~cat:"draw" "graph-drawing:layout" (fun () ->
                  layout p rng ~iterations:60)
            in
            Mapper.mapped_or_gave_up (Option.bind (snap p pos) (Spatial_common.extract p)))
      in
      Mapper.outcome ~attempts:!attempts m
        ~note:"spring layout, nearest-cell legalisation, strict routing")
