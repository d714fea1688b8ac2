(** The online executor: continuous transaction arrival, policy-driven
    object movement (paper Section 9's first open problem, made
    executable).

    Semantics per step: (1) nodes whose previous transaction committed
    issue their next queued transaction once its arrival step has passed;
    (2) in-transit objects are delivered; (3) a waiting transaction
    commits when all its objects have been delivered to it; (4) released
    objects are granted to waiting requesters by the {!Policy} and start
    travelling (metric distance = delay).

    Grants are irrevocable until commit, so waits-for cycles can form; a
    watchdog breaks them by force-granting every object of the oldest
    waiting transaction (the abort-and-retry of real TMs, counted in
    [forced_grants]).  The preemptive timestamp policy (Greedy CM)
    instead steals objects from younger holders as it goes and needs no
    recovery.

    Transaction records are pulled from the stream lazily — a record is
    allocated when its node issues it, so at most [Stream.n] records are
    live at any moment regardless of stream length.  For continual
    arrivals at an injection rate (the open-system model), use
    {!Open_system} instead. *)

type stats = {
  makespan : int;  (** last commit step *)
  completed : int;
  mean_response : float;  (** mean of (commit - ready) + 1 per txn *)
  p95_response : float;
  total_travel : int;  (** weighted distance moved by objects *)
  forced_grants : int;  (** deadlock-recovery interventions *)
  preemptions : int;  (** objects stolen by older transactions *)
}

val run :
  ?policy:Policy.t ->
  ?patience:int ->
  Dtm_graph.Metric.t ->
  Stream.t ->
  homes:int array ->
  stats
(** [run m stream ~homes] executes the whole stream; default policy
    [Timestamp { preemption = false }], default [patience] 50 idle steps
    before deadlock recovery.  An empty stream yields an all-zero
    report.  Raises [Failure] if the run exceeds an internal step cap
    (indicative of a bug, not expected). *)
