(* Descriptive statistics and ASCII histograms.

   The Fig. 4 timeline and the ablation benches render their series with
   [hbar_chart]; the empirical tables report medians. *)

(* The middle element, or the linear interpolation halfway between the
   two middle ones for an even count. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: empty";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let lo = (n - 1) / 2 and hi = n / 2 in
  if lo = hi then sorted.(lo) else sorted.(lo) +. (0.5 *. (sorted.(hi) -. sorted.(lo)))

(* Horizontal bar chart: one labelled row per (label, value).
   [width] is the length of the longest bar in characters. *)
let hbar_chart ?(width = 50) series =
  let max_value = List.fold_left (fun acc (_, v) -> max acc v) 0.0 series in
  let label_width =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 series
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (label, value) ->
      let bar_len =
        if max_value <= 0.0 then 0
        else int_of_float (Float.round (value /. max_value *. float_of_int width))
      in
      Buffer.add_string buf (Table.pad Table.Left label_width label);
      Buffer.add_string buf " |";
      Buffer.add_string buf (String.make bar_len '#');
      Buffer.add_string buf (Printf.sprintf " %g\n" value))
    series;
  Buffer.contents buf
