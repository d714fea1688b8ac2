(** The continual-arrival open-system engine.

    {!Runner} executes a finite closed stream: each node works through
    its own queue, one transaction at a time.  This module executes the
    {e open} system of {i Stable Scheduling in Transactional Memory}
    (arXiv 2208.07359): transactions arrive exogenously from a
    {!Stream.source} at an injection rate rho, any number may be pending
    at once, and the interesting question is not makespan but whether
    the backlog stays {e bounded} — and at which critical rate rho* a
    policy destabilizes.

    The movement model matches {!Runner}: a granted object travels
    [max 1 (dist pos node)] steps; grants are irrevocable until commit
    except under the preemptive timestamp policy; a watchdog
    force-grants the oldest live transaction's objects after [patience]
    idle steps.  Per step: inject, deliver, commit, grant, watchdog,
    sample.

    The engine holds only the active frontier — live transaction
    records, per-object intrusive waiter lists (a committing transaction
    unlinks its entries at once), and a circular delivery calendar — so
    a 10^6–10^7-transaction run allocates O(1) memory per transaction
    and never materializes the stream (test/test_stability.ml enforces
    this with a [Gc] bound).

    It is the same engine that {!Sharded.run} partitions across shards:
    [run] is its one-shard case, which posts no cross-shard message.

    Everything is deterministic: one seeded [Prng] (used only by
    [Random_grant]), deterministic tie-breaks everywhere else, commits
    processed in ascending transaction id per step. *)

type verdict = Bounded | Diverging

val verdict_to_string : verdict -> string

type report = {
  horizon : int;  (** steps actually executed (may stop early) *)
  injected : int;
  committed : int;
  final_queue : int;  (** live transactions when the run stopped *)
  peak_queue : int;
  mean_queue : float;
  latency_p50 : int;
      (** exact nearest-rank percentiles of commit latency
          (commit - arrival + 1) over the trailing window; -1 when
          nothing committed *)
  latency_p99 : int;
  latency_p999 : int;
  max_latency : int;
  total_travel : int;
  forced_grants : int;
  preemptions : int;
  verdict : verdict;
}

val run :
  ?policy:Policy.t ->
  ?patience:int ->
  ?latency_window:int ->
  ?divergence_cap:int ->
  ?probe:(step:int -> injected:int -> committed:int -> queue:int -> unit) ->
  ?on_commit:(id:int -> node:int -> step:int -> unit) ->
  Dtm_graph.Metric.t ->
  Stream.source ->
  homes:int array ->
  horizon:int ->
  report
(** [run metric src ~homes ~horizon] drives the system for [horizon]
    steps (defaults: non-preemptive timestamp policy, patience 50,
    latency window 65536, divergence cap 10_000 live transactions).

    Stops early when the backlog exceeds [divergence_cap] (verdict
    [Diverging]) or when the source is exhausted and the system has
    drained (verdict [Bounded]).  A full-horizon run is judged by
    comparing the mean backlog over the final third of the horizon
    against the middle third: bounded iff
    [mean_last <= 1.35 * mean_mid + 4.0] — a steady queue passes, steady
    growth fails.

    [probe] fires after every step with cumulative counters (the
    conservation property [injected = committed + queue] is checked
    there); [on_commit] fires per commit with the transaction's id,
    issuing node and commit step, in ascending id order within a step.

    Transaction ids are assigned in pull order, so under the timestamp
    policies age order is id order.  Raises [Invalid_argument] on a
    homes/object-count mismatch or non-positive parameters. *)

val critical_rate :
  ?iters:int -> lo:float -> hi:float -> (float -> bool) -> float * float
(** [critical_rate ~lo ~hi stable] binary-searches the critical
    injection rate: given [stable rho] (typically "run the engine at
    rate rho and check the verdict"), returns the final bracket
    [(rho_stable, rho_unstable)] after [iters] bisections (default 7; 2
    + iters probes total).  Degenerate answers: [(lo, lo)] when even
    [lo] is unstable, [(hi, hi)] when [hi] is still stable.  Requires
    [0 < lo < hi]. *)

(**/**)

val run_sharded :
  who:string ->
  policy:Policy.t ->
  patience:int ->
  latency_window:int ->
  divergence_cap:int ->
  probe:(step:int -> injected:int -> committed:int -> queue:int -> unit) option ->
  on_commit:(id:int -> node:int -> step:int -> unit) option ->
  pool:Dtm_util.Pool.t option ->
  round_steps:int ->
  shards:int ->
  owner:int array ->
  Dtm_graph.Metric.t ->
  Stream.source ->
  homes:int array ->
  horizon:int ->
  report
(** The engine behind {!run} and {!Sharded.run}, with object [o] owned
    by shard [owner.(o)]; [who] prefixes its [Invalid_argument]
    messages.  Call those two instead. *)
