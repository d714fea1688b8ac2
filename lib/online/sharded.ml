(* Stateless splitmix placement of objects onto shards, the same
   finalizer recipe as [Injection.home_of] with its own base so the two
   partitions are independent.  Every cell, test and tool can recompute
   it without sharing state. *)
let shard_of ~shards o =
  if shards < 1 then invalid_arg "Sharded.shard_of: shards < 1";
  if shards = 1 then 0
  else begin
    let z = 0x73686172 + (o * 0x9e3779b9) in
    let z = (z lxor (z lsr 30)) * 0x2545F4914F6CDD1D in
    let z = (z lxor (z lsr 27)) * 0x2545F4914F6CDD1D in
    let z = (z lxor (z lsr 31)) land max_int in
    z mod shards
  end

(* The engine is [Open_system.run_sharded]: the cells, the message
   protocol and the bulk-synchronous coordinator all live there, and
   [Open_system.run] is its one-cell case.  A sharded run differs only in
   its owner table. *)
let run ?(policy = Policy.Timestamp { preemption = false }) ?(patience = 50)
    ?(latency_window = 65536) ?(divergence_cap = 10_000) ?probe ?on_commit
    ?pool ?(round_steps = 4) ~shards metric make_source ~homes ~horizon =
  if shards < 1 then invalid_arg "Sharded.run: shards < 1";
  if round_steps < 1 then invalid_arg "Sharded.run: round_steps < 1";
  Open_system.run_sharded ~who:"Sharded.run" ~policy ~patience ~latency_window
    ~divergence_cap ~probe ~on_commit ~pool ~round_steps ~shards
    ~owner:(Array.init (Array.length homes) (shard_of ~shards))
    metric (make_source ()) ~homes ~horizon
