(** Chronological execution traces with invariant checking.

    The replay and online engines emit traces; tests assert the
    single-copy and exactly-once invariants on them.  Internally a trace
    is a flat struct-of-arrays, so building one from a replay's event
    arena costs a handful of array allocations instead of a consed,
    sorted list. *)

type t

val of_events : Event.t list -> t
(** Sorts the events chronologically. *)

val of_arena : Event_arena.t -> t
(** Sorted snapshot of the arena's events; the arena can be reused
    afterwards. *)

val events : t -> Event.t list

val length : t -> int

val check_single_copy : t -> initial_pos:int array -> (unit, string) result
(** Every object departs only from the node where it currently is, and
    arrives where it was headed: the single-copy invariant of the
    data-flow model. *)

val check_executes_once : t -> (unit, string) result
(** No node commits twice. *)

(**/**)

val raw : t -> int * int array * int array * int array * int array * int array
(** [(count, time, phase, obj, node, dest)] — the flat chronological
    struct-of-arrays (phase 0 arrive, 1 execute, 2 depart; absent fields
    are 0).  Owned by the trace: callers must not mutate.  Analyzer
    internals (trace lints) walk the arrays directly so auditing a
    million-event trace allocates nothing. *)

(**/**)
