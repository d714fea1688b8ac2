(** Shared measurement helpers for the experiment suite. *)

type measurement = {
  makespan : int;
  lower : int;
  ratio : float;
  feasible : bool;
  clean : bool;
      (** no error-severity static-analysis finding, and — when a trace
          audit is requested — the expanded execution trace passes every
          DTM11x lint *)
}

type audit = { graph : Dtm_graph.Graph.t }
(** The explicit carrier graph, enabling the trace-audit gate: with it,
    {!measure} expands the schedule into a hop-by-hop trace with
    {!Dtm_sim.Replay.walk} (metric-routed — no Dijkstra, so auditing a
    4096-node sweep row is cheap) and runs the DTM11x trace lints on the
    result. *)

val audit : Dtm_topology.Topology.t -> audit

val measure :
  ?jobs:int ->
  ?audit:audit ->
  Dtm_graph.Metric.t ->
  Dtm_core.Instance.t ->
  Dtm_core.Schedule.t ->
  measurement
(** Makespan, certified lower bound, their ratio, a validator verdict,
    and the static-analysis gate: every measurement is also run through
    {!Dtm_analysis.Analyze.quick} — plus, when [audit] is given, the
    trace-audit gate — before results are reported.  [jobs] is
    forwarded to {!Dtm_core.Lower_bound.certified}, whose per-object
    walk oracles otherwise fan out on the shared default pool ([-j N]);
    results are identical at any parallelism. *)

val sweep :
  seeds:int list ->
  ?audit:audit ->
  gen:(Dtm_util.Prng.t -> Dtm_core.Instance.t) ->
  metric:Dtm_graph.Metric.t ->
  sched:(Dtm_core.Instance.t -> Dtm_core.Schedule.t) ->
  unit ->
  measurement list
(** One generated instance and measurement per seed, in seed order.
    Seeds are measured in parallel on {!Dtm_util.Pool.default} ([-j N]
    in the binaries); [gen] and [sched] must therefore be pure up to
    their [Prng.t] argument — each seed owns a fresh generator, so
    results are independent of the parallelism degree.  [audit] turns
    on the per-measurement trace gate (see {!measure}); the shared
    graph is read-only across domains. *)

val summarize : measurement list -> float * float * bool
(** [(mean, max, all_ok)] of the ratios; [all_ok] requires every
    measurement to be feasible {e and} statically clean. *)

val mean_ratio :
  seeds:int list ->
  ?audit:audit ->
  gen:(Dtm_util.Prng.t -> Dtm_core.Instance.t) ->
  metric:Dtm_graph.Metric.t ->
  sched:(Dtm_core.Instance.t -> Dtm_core.Schedule.t) ->
  unit ->
  float * float * bool
(** [summarize] of [sweep]: one instance per seed, measured in
    parallel; [all_ok] requires every schedule to be feasible {e and}
    statically clean. *)

val fmt_ratio : float -> string
