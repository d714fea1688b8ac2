(** Step-level execution of a schedule on the explicit graph.

    Expands every object's itinerary into hop-by-hop movements along
    shortest paths, checks at each transaction's step that all its
    objects have physically arrived, and reports network-level statistics
    the metric-level validator cannot see (hop counts, per-object waits,
    a full event trace).

    Two rules pick each leg's shortest path; everything else is one
    itinerary loop.  {!run} follows a {!Router}'s Dijkstra parent chain.
    {!walk} descends the metric greedily: from [u] toward [dst] it takes
    the first CSR neighbour [v] with [w(u,v) + dist(v,dst) = dist(u,dst)].
    On a graph whose metric is its shortest-path metric such a neighbour
    always exists, so every walk has exact metric length, and the whole
    trace costs [O(hops * degree)] with no per-source state — cheap
    enough to audit thousands of replays on 4096-node graphs, where a
    Dijkstra tree per source is not.  Where shortest paths tie, the two
    rules may route differently; their verdicts and weighted distances
    agree.

    Timing is the same under both rules: an object leaves at the end of
    the step that releases it, each hop of weight [w] departs at [t] and
    arrives at [t + w], and the release advances to the committing
    transaction's step. *)

type result = {
  ok : bool;
  errors : string list;  (** empty iff [ok] *)
  makespan : int;  (** last execution step *)
  messages : int;  (** total weighted distance travelled by objects *)
  hops : int;  (** total edges traversed *)
  total_wait : int;
      (** summed idle time between an object's arrival and its use *)
  trace : Trace.t;
}

val run :
  ?router:Router.t ->
  Dtm_graph.Graph.t ->
  Dtm_core.Instance.t ->
  Dtm_core.Schedule.t ->
  result
(** [run g inst sched] replays [sched].  [ok = false] (with explanatory
    [errors]) when an object cannot reach a transaction in time or a
    transaction is unscheduled — i.e. exactly when
    {!Dtm_core.Validator.check} fails against the graph's shortest-path
    metric.

    [?router] reuses a caller-owned {!Router.t} (it must have been
    created from the same [g] value, enforced by physical equality) so
    the per-source shortest-path cache survives across replays on the
    same graph; without it a fresh router is built per call.  The result
    is identical either way.  Raises [Invalid_argument] when a leg's
    destination is unreachable. *)

val walk :
  Dtm_graph.Graph.t ->
  Dtm_graph.Metric.t ->
  Dtm_core.Instance.t ->
  Dtm_core.Schedule.t ->
  result
(** [walk g metric inst sched] is {!run} with legs routed by metric
    descent.  [ok = false] on the same failures, and also when the
    metric disagrees with the graph (no descending neighbour, reported
    as an error).  [metric] must be the shortest-path metric of [g] and
    [Metric.size metric = Graph.n g]. *)
