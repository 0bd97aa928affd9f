(* Interconnect topologies between cells of the array.

   The classic design points of the surveyed architectures: 4-neighbour
   mesh (MorphoSys, ADRES default), torus (wrap-around), mesh-plus with
   diagonals, one-hop mesh (links skipping one cell), and a fully
   connected crossbar as the VLIW-like upper bound. *)

type t = Mesh | Torus | Diagonal | One_hop | Full

let to_string = function
  | Mesh -> "mesh"
  | Torus -> "torus"
  | Diagonal -> "diagonal"
  | One_hop -> "one-hop"
  | Full -> "full"

let of_string = function
  | "mesh" -> Mesh
  | "torus" -> Torus
  | "diagonal" -> Diagonal
  | "one-hop" | "one_hop" -> One_hop
  | "full" -> Full
  | s -> invalid_arg ("Topology.of_string: " ^ s)

(* Cell offsets (row, column) of the neighbour-list topologies, in
   the order their neighbour lists keep. *)
let mesh_offsets = [ (-1, 0); (1, 0); (0, -1); (0, 1) ]
let diagonal_offsets = mesh_offsets @ [ (-1, -1); (-1, 1); (1, -1); (1, 1) ]
let one_hop_offsets = mesh_offsets @ [ (-2, 0); (2, 0); (0, -2); (0, 2) ]

(* The offsets that land inside a rows x cols array from (r, c), as PE
   indices r * cols + c, in offset order. *)
let rec inside ~rows ~cols r c = function
  | [] -> []
  | (dr, dc) :: rest ->
      let r' = r + dr and c' = c + dc in
      if r' >= 0 && r' < rows && c' >= 0 && c' < cols then
        ((r' * cols) + c') :: inside ~rows ~cols r c rest
      else inside ~rows ~cols r c rest

(* Neighbours a value can be sent to in one cycle from the PE at
   (row, col) (excluding staying on the same PE, which is always
   possible).  Indices are r * cols + c. *)
let neighbours_at t ~rows ~cols ~row:r ~col:c =
  match t with
  | Mesh ->
      (* [inside ~rows ~cols r c mesh_offsets], unrolled: every array
         construction builds the list of each of its PEs *)
      let pe = (r * cols) + c in
      let l = if c + 1 < cols then [ pe + 1 ] else [] in
      let l = if c > 0 then (pe - 1) :: l else l in
      let l = if r + 1 < rows then (pe + cols) :: l else l in
      if r > 0 then (pe - cols) :: l else l
  | Diagonal -> inside ~rows ~cols r c diagonal_offsets
  | One_hop -> inside ~rows ~cols r c one_hop_offsets
  | Torus ->
      let at (r, c) = (r * cols) + c in
      if rows = 1 && cols = 1 then []
      else
        List.sort_uniq compare
          (List.map at
             (List.filter
                (fun rc -> rc <> (r, c))
                [
                  (((r - 1) + rows) mod rows, c);
                  ((r + 1) mod rows, c);
                  (r, ((c - 1) + cols) mod cols);
                  (r, (c + 1) mod cols);
                ]))
  | Full ->
      let pe = (r * cols) + c in
      List.init (rows * cols) Fun.id |> List.filter (fun q -> q <> pe)

let neighbours t ~rows ~cols pe = neighbours_at t ~rows ~cols ~row:(pe / cols) ~col:(pe mod cols)

let all = [ Mesh; Torus; Diagonal; One_hop; Full ]
