(** The basic greedy schedule under read replication.

    {!Greedy}'s pipeline on a thinner conflict relation: the dependency
    graph, built by {!Dependency.of_pairs} from {!conflict_pairs}, has an
    edge only when at least one of the two transactions {e writes} a
    shared object.  Read-read pairs do not conflict, so read-mostly
    workloads color with far fewer colors.  {!Coloring.greedy} then
    places each reader at a distance-respecting offset from every
    writer, which is exactly what {!Rw_validator}'s copy-shipping rule
    needs.  Only the final shift is specific to replication: it gives
    home-sourced copies (first writers, and readers that precede every
    writer of their object) time to arrive. *)

val schedule :
  ?strategy:Coloring.strategy ->
  ?order:Coloring.order ->
  Dtm_graph.Metric.t ->
  Rw_instance.t ->
  Schedule.t

val conflict_pairs : Rw_instance.t -> (int * int) list
(** The conflicting transaction pairs [(u, v)] with [u < v], ascending
    and without repeats, for tests and reporting. *)
