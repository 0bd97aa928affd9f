(* Plain-text table rendering for bench and report output.

   The bench harness regenerates the survey's Table I and the empirical
   comparison tables in a monospaced layout; this module owns the
   column sizing and separators so every table in the repo looks alike. *)

type align = Left | Right | Center

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let space = width - n in
    match align with
    | Left -> s ^ String.make space ' '
    | Right -> String.make space ' ' ^ s
    | Center ->
        let l = space / 2 in
        String.make l ' ' ^ s ^ String.make (space - l) ' '

let widths headers rows =
  let ncols = Array.length headers in
  let w = Array.map String.length headers in
  List.iter
    (fun row ->
      if Array.length row <> ncols then invalid_arg "Table: ragged row";
      Array.iteri (fun i cell -> w.(i) <- max w.(i) (String.length cell)) row)
    rows;
  w

let separator w =
  "+" ^ String.concat "+" (Array.to_list (Array.map (fun n -> String.make (n + 2) '-') w)) ^ "+"

let render_row align w row =
  let cells = Array.to_list (Array.mapi (fun i cell -> " " ^ pad align w.(i) cell ^ " ") row) in
  "|" ^ String.concat "|" cells ^ "|"

(* [render ~headers rows] returns the table as a string, one row per
   line: headers centred, cells left-aligned. *)
let render ~headers rows =
  let w = widths headers rows in
  let sep = separator w in
  let buf = Buffer.create 256 in
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_row Center w headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row Left w row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf sep;
  Buffer.contents buf

let print ~headers rows = print_string (render ~headers rows)
