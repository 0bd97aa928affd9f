(* Architecture model tests: topologies, capability queries, hop
   tables, and the configuration-word encoding. *)

open Ocgra_arch
module Op = Ocgra_dfg.Op
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------- topologies ---------- *)

let test_mesh_neighbours () =
  (* 3x3 mesh: corner 2 neighbours, edge 3, centre 4 *)
  let n pe = List.length (Topology.neighbours Topology.Mesh ~rows:3 ~cols:3 pe) in
  checki "corner" 2 (n 0);
  checki "edge" 3 (n 1);
  checki "centre" 4 (n 4)

let test_torus_regular () =
  for pe = 0 to 15 do
    checki "torus degree 4" 4 (List.length (Topology.neighbours Topology.Torus ~rows:4 ~cols:4 pe))
  done

let test_diagonal_centre () =
  checki "8 neighbours" 8 (List.length (Topology.neighbours Topology.Diagonal ~rows:3 ~cols:3 4))

let test_full_topology () =
  checki "all others" 15 (List.length (Topology.neighbours Topology.Full ~rows:4 ~cols:4 3))

let qcheck_topology_symmetric =
  QCheck.Test.make ~name:"all topologies are symmetric" ~count:100
    QCheck.(pair (int_range 1 5) (int_range 1 5))
    (fun (rows, cols) ->
      List.for_all
        (fun topo ->
          let npe = rows * cols in
          List.for_all
            (fun p ->
              List.for_all
                (fun q -> List.mem p (Topology.neighbours topo ~rows ~cols q))
                (Topology.neighbours topo ~rows ~cols p))
            (List.init npe Fun.id))
        Topology.all)

let test_topology_string_roundtrip () =
  List.iter
    (fun t ->
      checkb "roundtrip" true (Topology.of_string (Topology.to_string t) = t))
    Topology.all

(* ---------- cgra ---------- *)

let test_hop_table_is_manhattan_on_mesh () =
  let cgra = Cgra.uniform ~rows:4 ~cols:4 () in
  let hop = Cgra.hop_table cgra in
  for i = 0 to 15 do
    for j = 0 to 15 do
      let r1, c1 = Cgra.coords cgra i and r2, c2 = Cgra.coords cgra j in
      checki "manhattan" (abs (r1 - r2) + abs (c1 - c2)) hop.(i).(j)
    done
  done

let test_heterogeneous_capabilities () =
  let cgra = Cgra.adres_like ~rows:4 ~cols:4 () in
  (* loads only in column 0 *)
  checkb "col0 mem" true (Cgra.supports cgra 0 (Op.Load "a"));
  checkb "col1 no mem" false (Cgra.supports cgra 1 (Op.Load "a"));
  (* muls on even cells *)
  checkb "even mul" true (Cgra.supports cgra 2 (Op.Binop Op.Mul));
  checkb "odd no mul" false (Cgra.supports cgra 1 (Op.Binop Op.Mul));
  (* everyone does alu and routing *)
  checkb "alu" true (Cgra.supports cgra 7 (Op.Binop Op.Add));
  checkb "route" true (Cgra.supports cgra 7 Op.Route);
  checki "mem PEs" 4 (List.length (Cgra.capable_pes cgra (Op.Load "x")))

let qcheck_hop_table_metric =
  QCheck.Test.make ~name:"hop table is a metric (triangle inequality)" ~count:60
    QCheck.(pair (int_range 2 4) (int_range 0 4))
    (fun (n, topo_idx) ->
      let topo = List.nth Topology.all topo_idx in
      let cgra = Cgra.uniform ~topology:topo ~rows:n ~cols:n () in
      let hop = Cgra.hop_table cgra in
      let npe = n * n in
      let ok = ref true in
      for i = 0 to npe - 1 do
        if hop.(i).(i) <> 0 then ok := false;
        for j = 0 to npe - 1 do
          if hop.(i).(j) <> hop.(j).(i) then ok := false;
          for k = 0 to npe - 1 do
            if hop.(i).(j) > hop.(i).(k) + hop.(k).(j) then ok := false
          done
        done
      done;
      !ok)

(* An array of any topology and shape up to 4x4 with up to four random
   faults, each a one-way [Link_down] or a [Pe_down]: the link
   relation of such an array is asymmetric. *)
let random_faulted_array rng =
  let rows = Rng.int_in rng 1 4 and cols = Rng.int_in rng 1 4 in
  let topology = Rng.choose_list rng Topology.all in
  let healthy = Cgra.uniform ~topology ~rows ~cols () in
  let npe = Cgra.pe_count healthy in
  let faults =
    List.init (Rng.int rng 5) (fun _ ->
        let pe = Rng.int rng npe in
        match Cgra.raw_neighbours healthy pe with
        | _ :: _ as ns when Rng.int rng 3 > 0 -> Fault.Link_down (pe, Rng.choose_list rng ns)
        | _ -> Fault.Pe_down pe)
  in
  Cgra.with_faults healthy faults

(* The hop table against a Floyd-Warshall over the fault-masked
   [neighbours], asymmetric and unreachable entries included. *)
let qcheck_hop_table_floyd_warshall =
  QCheck.Test.make ~name:"faulted hop table equals Floyd-Warshall" ~count:200 QCheck.small_int
    (fun seed ->
      let cgra = random_faulted_array (Rng.create (0x40B + seed)) in
      let n = Cgra.pe_count cgra in
      let inf = Cgra.unreachable in
      let d = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0 else inf)) in
      for i = 0 to n - 1 do
        List.iter (fun j -> if j <> i then d.(i).(j) <- 1) (Cgra.neighbours cgra i)
      done;
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if d.(i).(k) < inf && d.(k).(j) < inf then
              d.(i).(j) <- min d.(i).(j) (d.(i).(k) + d.(k).(j))
          done
        done
      done;
      Cgra.hop_table cgra = d)

(* One-way and downed-PE faults on a 1x4 mesh row 0-1-2-3: the table
   turns asymmetric and gets unreachable entries. *)
let test_hop_table_under_faults () =
  let row = Cgra.uniform ~rows:1 ~cols:4 () in
  let hop = Cgra.hop_table (Cgra.with_faults row [ Fault.Link_down (1, 2); Fault.Pe_down 3 ]) in
  checki "0 -> 2 blocked" Cgra.unreachable hop.(0).(2);
  checki "2 -> 0 open" 2 hop.(2).(0);
  checki "into a downed PE" Cgra.unreachable hop.(2).(3);
  checki "out of a downed PE" Cgra.unreachable hop.(3).(2);
  checki "downed diagonal" 0 hop.(3).(3)

(* The feeder lists: for every PE [d], [d] and every PE with a live
   link into [d] (the ascending set the router's tie rule ranges over),
   in exactly the order [d :: filter (fun q -> d in neighbours q)
   (raw_neighbours d)] that the SAT encoder numbers its variables in.
   The link relation is asymmetric under one-way faults, so [d]'s own
   neighbour list does not give them. *)
let qcheck_feeders =
  QCheck.Test.make ~name:"feeder lists" ~count:200 QCheck.small_int (fun seed ->
      let cgra = random_faulted_array (Rng.create (0xFEED + seed)) in
      let pes = List.init (Cgra.pe_count cgra) Fun.id in
      let into d q = List.mem d (Cgra.neighbours cgra q) in
      List.for_all
        (fun d ->
          let f = Cgra.feeders cgra d in
          List.sort_uniq compare f = List.filter (fun q -> q = d || into d q) pes
          && f = d :: List.filter (into d) (Cgra.raw_neighbours cgra d))
        pes)

let test_coords_index_roundtrip () =
  let cgra = Cgra.uniform ~rows:3 ~cols:5 () in
  for pe = 0 to 14 do
    let r, c = Cgra.coords cgra pe in
    checkb "row-major" true ((r, c) = (pe / 5, pe mod 5))
  done

(* ---------- context words ---------- *)

let random_slot rng =
  let srcs =
    Array.init 3 (fun _ ->
        match Rng.int rng 5 with
        | 0 -> Context.Src_none
        | 1 -> Context.Src_self
        | 2 -> Context.Src_const
        | 3 -> Context.Src_dir (Rng.int rng 12)
        | _ -> Context.Src_rf (Rng.int rng 16))
  in
  {
    Context.opcode = Rng.int rng 26;
    srcs;
    const = Rng.int_in rng (-8_000_000) 8_000_000;
    rf_we = Rng.bool rng;
    rf_waddr = Rng.int rng 16;
  }

let qcheck_context_roundtrip =
  QCheck.Test.make ~name:"configuration word encode/decode roundtrip" ~count:500
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 17) in
      let s = random_slot rng in
      let s' = Word_layout.decode_slot (Context.encode_slot s) in
      s' = s)

let test_opcode_coverage () =
  (* every op kind has a distinct opcode *)
  let ops =
    [
      Op.Nop; Op.Const 3; Op.Input "x"; Op.Output "y"; Op.Not; Op.Neg; Op.Select;
      Op.Load "a"; Op.Store "a"; Op.Route; Op.Binop Op.Add; Op.Binop Op.Mul; Op.Binop Op.Ne;
    ]
  in
  let d = Context.Dict.create () in
  let codes = List.map (fun op -> (Context.slot_of_op d op [||]).Context.opcode) ops in
  checki "distinct" (List.length codes) (List.length (List.sort_uniq compare codes))

let test_dict_interning () =
  let d = Context.Dict.create () in
  let intern s = (Context.slot_of_op d (Op.Input s) [||]).Context.const in
  let a = intern "alpha" in
  let b = intern "beta" in
  let a' = intern "alpha" in
  checki "stable" a a';
  checkb "distinct" true (a <> b)

(* ---------- automorphisms ---------- *)

(* A dihedral map of a rows x cols grid as a PE permutation. *)
let dihedral ~rows ~cols f =
  Array.init (rows * cols) (fun i ->
      let r, c = f (i / cols) (i mod cols) in
      (r * cols) + c)

(* The named maps of a 3x3 (or 2x2) grid, n = side - 1. *)
let id_map _ r c = (r, c)
let row_flip n r c = (n - r, c)
let col_flip n r c = (r, n - c)
let transpose _ r c = (c, r)

let maps_of cgra = List.sort compare (List.map Array.to_list (Cgra.automorphisms cgra))

let check_maps label side expected cgra =
  Alcotest.(check (list (list int)))
    label
    (List.sort compare
       (List.map (fun f -> Array.to_list (dihedral ~rows:side ~cols:side (f (side - 1)))) expected))
    (maps_of cgra)

let test_automorphisms_healthy () =
  let count rows cols topology =
    List.length (Cgra.automorphisms (Cgra.uniform ~topology ~rows ~cols ()))
  in
  checki "square mesh: all 8 dihedral maps" 8 (count 3 3 Topology.Mesh);
  checki "4x4 mesh" 8 (count 4 4 Topology.Mesh);
  checki "2x3 mesh: the 4 that keep the shape" 4 (count 2 3 Topology.Mesh);
  checki "3x3 torus keeps the dihedral maps" 8 (count 3 3 Topology.Torus);
  checki "2x4 torus" 4 (count 2 4 Topology.Torus);
  checki "diagonal" 8 (count 3 3 Topology.Diagonal);
  checki "1x3: maps that coincide count once" 2 (count 1 3 Topology.Mesh);
  checki "1x1: the identity" 1 (count 1 1 Topology.Mesh);
  let cgra = Cgra.uniform ~rows:3 ~cols:3 () in
  checkb "identity first" true
    (List.hd (Cgra.automorphisms cgra) = Array.init 9 Fun.id);
  (* every kept map carries each PE's neighbours onto the image's *)
  List.iter
    (fun s ->
      for i = 0 to 8 do
        Alcotest.(check (list int))
          "neighbours preserved"
          (List.sort compare (Cgra.neighbours cgra s.(i)))
          (List.sort compare (List.map (fun j -> s.(j)) (Cgra.neighbours cgra i)))
      done)
    (Cgra.automorphisms cgra)

(* Each fault or capability difference drops exactly the maps that do
   not carry it onto itself. *)
let test_automorphisms_broken () =
  let g3 = Cgra.uniform ~rows:3 ~cols:3 () and g2 = Cgra.uniform ~rows:2 ~cols:2 () in
  let with_ f g = Cgra.with_faults g f in
  (* a one-way link 0 -> 1 on 2x2: the column flip swaps 0 and 1, so
     it maps the dead link onto the live reverse one *)
  check_maps "one-way link fault" 2 [ id_map ] (with_ [ Fault.Link_down (0, 1) ] g2);
  check_maps "both directions down" 2 [ id_map; col_flip ]
    (with_ [ Fault.Link_down (0, 1); Fault.Link_down (1, 0) ] g2);
  check_maps "one-way centre link 4 -> 5" 3 [ id_map; row_flip ]
    (with_ [ Fault.Link_down (4, 5) ] g3);
  check_maps "dead slot on the centre breaks nothing" 3
    [ id_map; row_flip; col_flip; transpose; (fun n r c -> (n - r, n - c));
      (fun n r c -> (n - c, n - r)); (fun n r c -> (c, n - r)); (fun n r c -> (n - c, r)) ]
    (with_ [ Fault.Fu_slot_dead (4, 1) ] g3);
  check_maps "dead slot on a corner" 3 [ id_map; transpose ] (with_ [ Fault.Fu_slot_dead (0, 1) ] g3);
  check_maps "dead slots differ by index" 3 [ id_map; transpose ]
    (with_ [ Fault.Fu_slot_dead (0, 1); Fault.Fu_slot_dead (8, 2) ] g3);
  check_maps "same dead slot on opposite corners" 3
    [ id_map; transpose; (fun n r c -> (n - r, n - c)); (fun n r c -> (n - c, n - r)) ]
    (with_ [ Fault.Fu_slot_dead (0, 1); Fault.Fu_slot_dead (8, 1) ] g3);
  check_maps "pe down on an edge" 3 [ id_map; col_flip ] (with_ [ Fault.Pe_down 1 ] g3);
  check_maps "reduced RF on a corner" 3 [ id_map; transpose ] (with_ [ Fault.Rf_reduced (0, 1) ] g3);
  let pes = Array.make 9 (Pe.make [ Op.F_alu; Op.F_mul; Op.F_mem; Op.F_io ]) in
  pes.(3) <- Pe.make [ Op.F_alu ];
  check_maps "heterogeneous PE" 3 [ id_map; row_flip ]
    (Cgra.make ~rows:3 ~cols:3 ~topology:Topology.Mesh pes);
  (* ADRES: memory/IO in column 0, multipliers on even indices *)
  Alcotest.(check (list (list int)))
    "adres-like 4x4 keeps the row flip"
    (List.sort compare
       [ List.init 16 Fun.id; Array.to_list (dihedral ~rows:4 ~cols:4 (row_flip 3)) ])
    (maps_of (Cgra.adres_like ~rows:4 ~cols:4 ()))

(* ---------- pe ---------- *)

let test_pe_capabilities () =
  let pe = Pe.make [ Op.F_alu ] in
  checkb "alu" true (Pe.supports pe (Op.Binop Op.Add));
  checkb "no mul" false (Pe.supports pe (Op.Binop Op.Mul));
  checkb "no const without field" false (Pe.supports (Pe.make ~has_const:false [ Op.F_alu ]) (Op.Const 1));
  checkb "route always" true (Pe.supports pe Op.Route)

let () =
  Alcotest.run "arch"
    [
      ( "topology",
        [
          Alcotest.test_case "mesh degrees" `Quick test_mesh_neighbours;
          Alcotest.test_case "torus regular" `Quick test_torus_regular;
          Alcotest.test_case "diagonal centre" `Quick test_diagonal_centre;
          Alcotest.test_case "full" `Quick test_full_topology;
          QCheck_alcotest.to_alcotest qcheck_topology_symmetric;
          Alcotest.test_case "string roundtrip" `Quick test_topology_string_roundtrip;
        ] );
      ( "cgra",
        [
          Alcotest.test_case "mesh hop table" `Quick test_hop_table_is_manhattan_on_mesh;
          Alcotest.test_case "heterogeneous" `Quick test_heterogeneous_capabilities;
          Alcotest.test_case "coords roundtrip" `Quick test_coords_index_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_hop_table_metric;
          QCheck_alcotest.to_alcotest qcheck_hop_table_floyd_warshall;
          Alcotest.test_case "hop table under faults" `Quick test_hop_table_under_faults;
          QCheck_alcotest.to_alcotest qcheck_feeders;
          Alcotest.test_case "automorphisms of healthy grids" `Quick test_automorphisms_healthy;
          Alcotest.test_case "faults drop the maps they break" `Quick test_automorphisms_broken;
        ] );
      ( "context",
        [
          QCheck_alcotest.to_alcotest qcheck_context_roundtrip;
          Alcotest.test_case "opcodes" `Quick test_opcode_coverage;
          Alcotest.test_case "dict" `Quick test_dict_interning;
        ] );
      ("pe", [ Alcotest.test_case "capabilities" `Quick test_pe_capabilities ]);
    ]
