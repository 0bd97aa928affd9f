(** Multi-bank scratchpad model (Section III.C): single-ported,
    low-order-interleaved banks (address [a] in bank [a mod banks]);
    same-cycle same-bank accesses are sequentialised into stalls. *)

(** Affine access: address = base + stride * iteration + offset. *)
type access = { array_base : int; stride : int; offset : int }

(** The banking ablation: (bank count, stalls) per configuration, over
    the steady-state trace of [iters] iterations at [ii], where each
    access is a (modulo slot, access) pair.  Raises [Invalid_argument]
    on a bank count below 1. *)
val conflicts_by_banks :
  bank_counts:int list -> ii:int -> iters:int -> (int * access) list -> (int * int) list
