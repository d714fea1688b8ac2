(** Sharded open-system engine: the {!Open_system} frontier engine
    partitioned across [S] shards that advance in bulk-synchronous
    rounds on a {!Dtm_util.Pool}.

    Objects are placed on shards by {!shard_of}, a stateless splitmix
    hash of the object id (the same finalizer recipe as
    [Injection.home_of], with an independent base constant).  A
    transaction anchors at the home shard of its {e first} object; that
    shard owns its lifecycle (injection, missing-count, commit,
    latency).  Remote objects are acquired through a message protocol:
    the anchor registers a {e proxy waiter} with the owner
    ([msg_request]), the owner grants and reports landings
    ([msg_delivered]), commits release remote claims ([msg_release]),
    and preemption or watchdog pressure against a remotely-held object
    runs a revocation handshake ([msg_revoke]/[msg_ack]/[msg_force]) —
    the object never moves until the holder's anchor concedes, so a
    committed transaction's objects were provably all at its node, and
    committed prefixes stay lint-clean.

    Each round executes [round_steps] global steps locally on every
    shard; messages written during round [r] are applied by their
    receiver at the start of round [r + 1], read in fixed sender order
    from per-(sender, receiver) buffers.  The barrier is the pool-map
    join, so for a given (stream, shards, round_steps) the result is
    byte-identical at any [-j N].  The coordinator draws the stream once: at
    each round it pulls the round's arrivals, numbers them in pull order
    and routes each into its anchor cell's arrival buffer, so ids — and
    therefore timestamp order — are global, and every transaction is
    injected at the step a single engine pulling the same source would
    inject it.

    There is one engine: {!Open_system.run} is its one-shard case, and
    [shards = 1] runs exactly that case (no message is posted, and
    [round_steps] and [pool] are unused), reproducing its report.  At
    every [S], [injected = committed + final_queue] (conservation), and
    the verdict uses the same middle-third/final-third backlog test. *)

val shard_of : shards:int -> int -> int
(** [shard_of ~shards oid] is the owning shard of object [oid], in
    [0, shards); [shard_of ~shards:1 oid = 0].  Stateless: tools and
    tests can recompute the placement.  Raises [Invalid_argument] when
    [shards < 1]. *)

val run :
  ?policy:Policy.t ->
  ?patience:int ->
  ?latency_window:int ->
  ?divergence_cap:int ->
  ?probe:(step:int -> injected:int -> committed:int -> queue:int -> unit) ->
  ?on_commit:(id:int -> node:int -> step:int -> unit) ->
  ?pool:Dtm_util.Pool.t ->
  ?round_steps:int ->
  shards:int ->
  Dtm_graph.Metric.t ->
  (unit -> Stream.source) ->
  homes:int array ->
  horizon:int ->
  Open_system.report
(** [run ~shards metric make_source ~homes ~horizon] drives the sharded
    system.  [make_source] is called exactly once, whatever [shards]
    (e.g. [Injection.source_factory spec]).  Defaults match {!Open_system.run}
    ([patience 50], [latency_window 65536], [divergence_cap 10_000],
    non-preemptive timestamp policy), plus [pool] (the shared default
    pool) and [round_steps = 4], the message latency granularity.  Longer rounds
    amortize the barrier but stretch every cross-shard handoff by up to
    [2 round_steps] steps, which lowers the sustainable injection rate
    on contended objects — at the steady-state benchmark spec (Zipf 1.0,
    rate 1.0) rounds of 4 are stable while rounds of 8 diverge.

    [probe] fires after every merged step with cumulative global
    counters; [on_commit] fires in (step, id) order — the same order the
    unsharded engine produces.  Early exits (divergence, drain) are
    detected at the merged-step level but take effect at round
    granularity: [horizon] in the report is the last merged step.

    The metric must be safe to query from multiple domains ([Flat] and
    [Landmark] backends are; an [Oracle] closure is the caller's
    responsibility).  Raises [Invalid_argument] on non-positive
    parameters or a homes/object-count mismatch. *)
