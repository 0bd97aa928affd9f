(** The modulo routing resource graph of an array at one II, in the
    route model the exact engines share: the one owner of which (PE,
    slot) cells are live and of the one-cycle hops between them.  The
    SAT encoding, the presolve, the bound probe ([Iso_binding]), the
    {!Occupancy} ledger's dead-silicon pre-claim and repair diagnosis
    all read it; {!Check} stays independent as the oracle it is tested
    against. *)

(** The route model a claim assumes.  [Fu_hop]: values move by
    one-cycle FU hops, never wait in a register file, and every edge
    routes separately (no fan-out sharing). *)
type route_model = Fu_hop

(** ["fu-hop"]. *)
val route_model_to_string : route_model -> string

type t

val make : Ocgra_arch.Cgra.t -> ii:int -> t

(** True when [pe] is a PE of the array that is up and its config slot
    [time mod ii] is alive. *)
val live : t -> pe:int -> time:int -> bool

(** The number of live (PE, slot) cells. *)
val live_count : t -> int

(** The time-extended digraph over cells: node [pe * ii + s] is (pe,
    s), with an edge to (q, (s + 1) mod ii) for every [q] in
    [Cgra.reachable_in_one pe], added PE by PE, slot by slot, in that
    list's order.  Dead cells keep their nodes and edges; {!live} says
    which a mapping may use. *)
val host : t -> Ocgra_graph.Digraph.t
