(** The kernel library: loop bodies of the benchmark families the
    surveyed papers map, as DFGs with loop-carried edges plus reference
    semantics for end-to-end verification. *)

type t = {
  name : string;
  description : string;
  dfg : Ocgra_dfg.Dfg.t;
  init : int -> int;  (** iteration -1 value per node *)
  inputs : int -> (string * int array) list;  (** trip count -> streams *)
  memory : (string * int array) list;  (** named arrays *)
  outputs : string list;
  has_branch : bool;  (** contains if-converted control flow *)
}

val dot_product : unit -> t
val saxpy : unit -> t
val fir4 : unit -> t
val iir2 : unit -> t
val sobel_row : unit -> t
val butterfly : unit -> t
val absdiff : unit -> t

val all : unit -> t list

(** Raises [Invalid_argument] on unknown names. *)
val find : string -> t

(** Small kernels on which the exact methods finish quickly. *)
val small_suite : unit -> t list

val full_suite : unit -> t list

(** Run the reference interpreter on a kernel's own streams/memory. *)
val eval_reference : t -> iters:int -> Ocgra_dfg.Eval.result
