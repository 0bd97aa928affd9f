(* The survey's corpus: the CGRA-mapping publications cited by the
   paper, as structured records.  Reference numbers ([12]..[74]) follow
   the paper's bibliography; scope/technique tags transcribe Table I;
   topic tags transcribe the Fig. 4 annotations (modulo scheduling,
   predication styles, memory awareness, hardware loops, ...).

   Table I and the Fig. 4 timeline are *generated* from this data (see
   Table1 and Timeline), and the unit tests assert that the generated
   Table I cells reproduce the paper's exactly. *)

type scope = S_spatial | S_temporal | S_binding | S_scheduling

type technique =
  | T_heuristic
  | T_ga
  | T_sa
  | T_qea
  | T_ilp
  | T_bb
  | T_cp
  | T_sat
  | T_smt

type topic =
  | Modulo_scheduling
  | Loop_unrolling
  | Full_predication
  | Partial_predication
  | Dual_issue
  | Direct_mapping
  | Memory_aware
  | Hardware_loops
  | Polyhedral
  | Register_allocation
  | Streaming
  | Hierarchical
  | Nested_loops
  | Ai_based

type entry = {
  ref_no : int; (* bibliography number in the paper *)
  authors : string;
  title : string;
  year : int;
  cells : (scope * technique) list; (* Table I memberships *)
  topics : topic list;
}

let e ref_no authors title year cells topics = { ref_no; authors; title; year; cells; topics }

let entries =
  [
    e 12 "Bondalapati & Prasanna" "Mapping loops onto reconfigurable architectures" 1998
      [ (S_temporal, T_heuristic) ] [ Modulo_scheduling; Loop_unrolling ];
    e 13 "Bondalapati" "Parallelizing DSP nested loops using data context switching" 2001 []
      [ Nested_loops; Loop_unrolling ];
    e 14 "Lee, Choi & Dutt" "Compilation approach for coarse-grained reconfigurable architectures"
      2003 [ (S_binding, T_heuristic) ] [];
    e 15 "Guo et al." "Formulating data-arrival synchronizers in ILP for CGRA mapping" 2021
      [ (S_binding, T_ilp); (S_scheduling, T_ilp) ] [ Modulo_scheduling ];
    e 16 "Lee & Carlson" "Ultra-fast CGRA scheduling to enable run time, programmable CGRAs" 2021
      [ (S_temporal, T_heuristic) ] [ Modulo_scheduling ];
    e 17 "Miyasaka et al." "SAT-based mapping of data-flow graphs onto CGRAs" 2021
      [ (S_temporal, T_sat) ] [];
    e 19 "Kojima et al." "GenMap: genetic algorithmic approach for optimizing spatial mapping" 2020
      [ (S_spatial, T_ga) ] [];
    e 22 "Mei et al." "DRESC: a retargetable compiler for CGRAs" 2002 [ (S_temporal, T_sa) ]
      [ Modulo_scheduling ];
    e 23 "Yoon et al." "A graph drawing based spatial mapping algorithm for CGRAs" 2009
      [ (S_spatial, T_heuristic); (S_spatial, T_ilp) ] [];
    e 24 "Das et al." "A scalable design approach to efficiently map applications on CGRAs" 2016
      [ (S_binding, T_heuristic); (S_scheduling, T_heuristic) ] [];
    e 25 "Dave et al." "URECA: unified register file for CGRAs" 2018 [] [ Register_allocation ];
    e 26 "Wijerathne et al." "HiMap: fast and scalable high-quality mapping via hierarchical abstraction"
      2021 [ (S_temporal, T_heuristic) ] [ Modulo_scheduling; Hierarchical ];
    e 27 "Chen & Mitra" "Graph minor approach for application mapping on CGRAs" 2014 []
      [ Modulo_scheduling ];
    e 28 "Hamzeh et al." "EPIMap: using epimorphism to map applications on CGRAs" 2012
      [ (S_binding, T_heuristic); (S_scheduling, T_heuristic) ] [ Modulo_scheduling ];
    e 29 "De Sutter et al." "Placement-and-routing-based register allocation for CGRAs" 2008 []
      [ Register_allocation; Modulo_scheduling ];
    e 30 "Hatanaka & Bagherzadeh" "A modulo scheduling algorithm for a coarse-grain reconfigurable array template"
      2007 [ (S_spatial, T_heuristic); (S_binding, T_sa) ] [ Modulo_scheduling ];
    e 31 "Li et al." "ChordMap: automated mapping of streaming applications onto CGRA" 2021
      [ (S_spatial, T_heuristic) ] [ Streaming ];
    e 32 "Weng et al." "DSAGEN: synthesizing programmable spatial accelerators" 2020
      [ (S_spatial, T_sa) ] [];
    e 33 "Gobieski et al." "SNAFU: an ultra-low-power, energy-minimal CGRA-generation framework" 2021
      [ (S_spatial, T_sa) ] [];
    e 34 "Chin & Anderson" "An architecture-agnostic ILP approach to CGRA mapping" 2018
      [ (S_spatial, T_ilp) ] [];
    e 35 "Nowatzki et al." "A general constraint-centric scheduling framework for spatial architectures"
      2013 [ (S_spatial, T_ilp) ] [];
    e 36 "Zhao et al." "Towards higher performance and robust compilation for CGRA modulo scheduling"
      2020 [ (S_temporal, T_heuristic); (S_scheduling, T_heuristic) ] [ Modulo_scheduling ];
    e 37 "Park et al." "Edge-centric modulo scheduling for coarse-grained reconfigurable architectures"
      2008 [ (S_temporal, T_heuristic) ] [ Modulo_scheduling ];
    e 38 "Dave et al." "RAMP: resource-aware mapping for CGRAs" 2018 [ (S_temporal, T_heuristic) ]
      [ Modulo_scheduling ];
    e 39 "Gu et al." "Stress-aware loops mapping on CGRAs with dynamic multi-map reconfiguration"
      2018 [ (S_temporal, T_heuristic) ] [ Modulo_scheduling ];
    e 40 "Canesche et al." "Traversal: a fast and adaptive graph-based placement and routing for CGRAs"
      2021 [ (S_temporal, T_heuristic) ] [];
    e 41 "Brenner et al." "Optimal simultaneous scheduling, binding and routing for processor-like reconfigurable architectures"
      2006 [ (S_temporal, T_ilp) ] [];
    e 42 "Karunaratne et al." "DNestMap: mapping deeply-nested loops on ultra-low power CGRAs" 2018
      [ (S_temporal, T_bb) ] [ Nested_loops; Hardware_loops ];
    e 43 "Raffin et al." "Scheduling, binding and routing system for a run-time reconfigurable operator based multimedia architecture"
      2010 [ (S_temporal, T_cp) ] [];
    e 44 "Donovick et al." "Agile SMT-based mapping for CGRAs with restricted routing networks" 2019
      [ (S_temporal, T_smt) ] [];
    e 45 "Yin et al." "Joint affine transformation and loop pipelining for mapping nested loop on CGRAs"
      2015 [ (S_binding, T_heuristic) ] [ Polyhedral; Nested_loops; Modulo_scheduling ];
    e 46 "Hamzeh et al." "REGIMap: register-aware application mapping on CGRAs" 2013
      [ (S_binding, T_heuristic); (S_scheduling, T_heuristic) ]
      [ Register_allocation; Modulo_scheduling ];
    e 47 "Peyret et al." "Efficient application mapping on CGRAs based on backward simultaneous scheduling/binding"
      2014 [ (S_binding, T_heuristic) ] [];
    e 48 "Lee, Choi & Dutt" "Mapping multi-domain applications onto coarse-grained reconfigurable architectures"
      2011 [ (S_binding, T_qea); (S_binding, T_ilp); (S_scheduling, T_heuristic) ] [];
    e 49 "Friedman et al." "SPR: an architecture-adaptive CGRA mapping tool" 2009
      [ (S_binding, T_sa) ] [];
    e 50 "Schulz et al." "Rotated parallel mapping: a novel approach for mapping data parallel applications"
      2014 [ (S_binding, T_sa); (S_scheduling, T_heuristic) ] [ Memory_aware ];
    e 51 "Bansal et al." "Analysis of the performance of CGRAs with different PE configurations" 2003
      [ (S_scheduling, T_heuristic) ] [];
    e 52 "Balasubramanian & Shrivastava" "CRIMSON: compute-intensive loop acceleration by randomized iterative modulo scheduling"
      2020 [ (S_scheduling, T_heuristic) ] [ Modulo_scheduling ];
    e 53 "Mu et al." "Routability-enhanced scheduling for application mapping on CGRAs" 2021
      [ (S_scheduling, T_ilp) ] [ Modulo_scheduling ];
    e 54 "Das et al." "An energy-efficient integrated programmable array accelerator and compilation flow"
      2019 [] [ Modulo_scheduling ];
    e 55 "Yuan et al." "Dynamic-II pipeline: compiling loops with irregular branches on static-scheduling CGRA"
      2021 [] [ Dual_issue; Modulo_scheduling ];
    e 56 "Anido et al." "Improving the operation autonomy of SIMD processing elements by using guarded instructions"
      2002 [] [ Full_predication ];
    e 57 "Chang & Choi" "Mapping control intensive kernels onto coarse-grained reconfigurable array architecture"
      2008 [] [ Partial_predication ];
    e 58 "Hamzeh et al." "Branch-aware loop mapping on CGRAs" 2014 [] [ Dual_issue ];
    e 59 "Karunaratne et al." "4D-CGRA: introducing branch dimension to spatio-temporal application mapping"
      2019 [] [ Dual_issue; Modulo_scheduling ];
    e 60 "Das et al." "Efficient mapping of CDFG onto coarse-grained reconfigurable array architectures"
      2017 [] [ Direct_mapping ];
    e 61 "Mei et al." "Exploiting loop-level parallelism on CGRAs using modulo scheduling" 2003 []
      [ Modulo_scheduling ];
    e 62 "Balasubramanian et al." "LASER: a hardware/software approach to accelerate complicated loops"
      2018 [] [ Hardware_loops ];
    e 63 "Sunny et al." "Hardware based loop optimization for CGRA architectures" 2021 []
      [ Hardware_loops ];
    e 64 "Vadivel et al." "Loop overhead reduction techniques for coarse grained reconfigurable architectures"
      2017 [] [ Hardware_loops ];
    e 65 "Li et al." "Combining memory partitioning and subtask generation for parallel data access"
      2021 [] [ Memory_aware ];
    e 66 "Kim et al." "Memory access optimization in compilation for CGRAs" 2011 [] [ Memory_aware ];
    e 67 "Zhao et al." "Optimizing the data placement and transformation for multi-bank CGRA computing system"
      2018 [] [ Memory_aware ];
    e 68 "Yin et al." "Conflict-free loop mapping for CGRA with multi-bank memory" 2017 []
      [ Memory_aware ];
    e 74 "Liu et al." "Data-flow graph mapping optimization for CGRA with deep reinforcement learning"
      2019 [] [ Ai_based ];
  ]

let scope_to_string = function
  | S_spatial -> "Spatial mapping"
  | S_temporal -> "Temporal mapping"
  | S_binding -> "Binding"
  | S_scheduling -> "Scheduling"

let technique_to_string = function
  | T_heuristic -> "heuristic"
  | T_ga -> "GA"
  | T_sa -> "SA"
  | T_qea -> "QEA"
  | T_ilp -> "ILP"
  | T_bb -> "B&B"
  | T_cp -> "CP"
  | T_sat -> "SAT"
  | T_smt -> "SMT"

let topic_to_string = function
  | Modulo_scheduling -> "modulo scheduling"
  | Loop_unrolling -> "loop unrolling"
  | Full_predication -> "full predication"
  | Partial_predication -> "partial predication"
  | Dual_issue -> "dual-issue single execution"
  | Direct_mapping -> "direct CDFG mapping"
  | Memory_aware -> "memory aware"
  | Hardware_loops -> "hardware loops"
  | Polyhedral -> "polyhedral model"
  | Register_allocation -> "register allocation"
  | Streaming -> "streaming"
  | Hierarchical -> "hierarchical"
  | Nested_loops -> "nested loops"
  | Ai_based -> "AI-based"

let with_topic topic = List.filter (fun entry -> List.mem topic entry.topics) entries

let in_cell scope technique =
  List.filter (fun entry -> List.mem (scope, technique) entry.cells) entries
  |> List.map (fun entry -> entry.ref_no)
  |> List.sort compare
