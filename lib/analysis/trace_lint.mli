(** DTM11x: lints over step-level execution traces.

    The static lints check what a schedule {e claims}; these check what
    an engine {e did}.  Any {!Dtm_sim.Trace.t} — from {!Dtm_sim.Replay}
    (router- or metric-routed) or {!Dtm_sim.Congestion} — can be
    audited against the instance and the commit times it was produced
    under:

    - DTM110 [trace-teleport]: every object's events form a connected
      walk from its home — departures leave the node the object is at,
      arrivals land where it was headed, nothing moves while in flight;
    - DTM111 [trace-bad-hop]: every hop is an edge of the communication
      graph and takes exactly its weight;
    - DTM112 [trace-capacity-exceeded]: at most [capacity] departures
      per undirected edge per step (only when [capacity] is given —
      [Replay] traces are deliberately unbounded);
    - DTM113 [trace-premature-commit]: when a transaction executes,
      every object it requests is present at its node (same-step
      arrivals count: the chronological order sorts arrive < execute <
      depart within a step);
    - DTM114 [trace-cost-mismatch]: each object's travelled distance
      equals [Cost.per_object_travel] for the commit order — the
      simulator and the metric arithmetic must agree;
    - DTM115 [trace-unserializable]: the commit order is
      conflict-serializable — users of one object never share a step,
      and the induced precedence relation is acyclic.

    DTM114/115 need every requester committed; both are skipped (no
    findings) when [commits] leaves a transaction of the instance
    unscheduled, as replayers skip those chains too. *)

val check :
  ?capacity:int ->
  graph:Dtm_graph.Graph.t ->
  metric:Dtm_graph.Metric.t ->
  Dtm_core.Instance.t ->
  commits:Dtm_core.Schedule.t ->
  Dtm_sim.Trace.t ->
  Diagnostic.t list
(** [check ~graph ~metric inst ~commits trace] — all findings, in
    chronological order of the offending event within each pass, passes
    in DTM code order.  [metric] must be [graph]'s shortest-path metric;
    [commits] are the execution steps the trace was produced under (the
    schedule for [Replay], [commit_times] for [Congestion]). *)
