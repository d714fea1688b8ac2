(** The executable STM runtime: DSTM-style obstruction-free software
    transactional memory over OCaml 5 domains, with the repo's
    scheduling policies plugged in as contention managers.

    Each transaction: invisibly reads its read-set (recording each
    object's version), burns its calibrated busy-work, opens every
    write-set object with an open-for-write CAS (consulting the
    {!Cm.t} on conflict), validates the read-set, and commits by a
    single CAS on its descriptor's status.  Aborted attempts retry
    until the transaction commits — the workload is closed, so
    [commits] always equals the number of transactions and
    [starts = commits + aborts].

    Validation fails a read [(o, v)] unless [o]'s current locator
    either (a) belongs to this transaction with [old_version = v], or
    (b) has a non-[Active] owner and still resolves to version [v].
    Failing on a merely {e acquired} (not yet committed) foreign
    owner is what makes validate-then-commit-CAS safe: two
    transactions that each read an object the other writes cannot
    both pass validation (each acquisition precedes its own
    validation, so one of them must observe the other's ownership).

    Every committed write increments its object by exactly 1, so
    [total_increments] (the sum of final object values) must equal
    the summed write-set sizes of all commits — the zero-lost-commit
    conservation check.

    Allocation: an attempt allocates only what DSTM requires — one
    fresh {!Desc.t} (6 words) and one fresh {!Tvar.locator} per
    open-for-write CAS it offers (5 words).  The versions observed by
    reads and acquired by writes go to per-domain [int array] scratch,
    sized once to the largest read and write set the domain meets, so
    a read-only commit costs its descriptor and nothing else.  Commit
    records are built from the spec and that scratch only when
    [record = true]. *)

type txn_spec = {
  node : int;  (** issuing node (bookkeeping only) *)
  reads : int array;  (** object ids read but not written *)
  writes : int array;  (** object ids opened for write (incremented) *)
  arrival : int;  (** birth for contention-manager priority, >= 1 *)
  work : int;  (** {!Calibrate.spin} units between read and write *)
}

type commit_record = {
  tid : int;
  seq : int;  (** global commit order, dense from 0 *)
  read_set : (int * int) array;  (** (object, version observed) *)
  write_set : (int * int) array;  (** (object, version created) *)
}

type report = {
  domains : int;
  starts : int;  (** attempts = commits + aborts *)
  commits : int;
  aborts : int;
  wall_ns : int;
  throughput : float;  (** commits per second of wall-clock *)
  abort_rate : float;  (** aborts / starts; 0 when nothing started *)
  total_increments : int;
      (** sum of final object values (all objects start at 0) *)
}

val run :
  ?record:bool ->
  ?cm:Cm.t ->
  domains:int ->
  num_objects:int ->
  txn_spec array ->
  report * commit_record array
(** [run ~domains ~num_objects specs] executes the workload on a
    {!Dtm_util.Pool} of [domains] domains (transaction [i] runs on
    shard [i mod domains]; each shard executes its transactions in
    index order, mirroring one-live-transaction-per-node issue order).
    Defaults: [record = false] (empty record array), [cm] = Greedy.
    With [record = true] the records come back sorted by [seq].
    Raises [Invalid_argument], before any transaction runs, on
    [domains < 1], [num_objects < 1], an object id out of range, a
    duplicate object in one write set, [arrival < 1] or negative
    [work]. *)

val of_injection :
  ?work_scale:int ->
  metric:Dtm_graph.Metric.t ->
  spec:Dtm_workload.Injection.spec ->
  count:int ->
  unit ->
  txn_spec array
(** Materialize [count] transactions from the injection source (same
    seeded draw the open-system engine replays) as all-write
    transactions.  A transaction's [work] is
    [work_scale * max 1 (max over its objects of
    dist(node, home(object)))] — the same communication-cost proxy the
    simulator charges, so simulated makespan and wall-clock are
    comparable.  [work_scale] defaults to 1; scale it with
    {!Calibrate.units_for} to hit a wall-clock target per unit. *)
