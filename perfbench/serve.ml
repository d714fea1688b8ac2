(* Workloads "serve" and "serve-sharded": a finite injection stream served
   until drained, on the path `dtm serve` takes (Sharded.run, which at one
   shard delegates to Open_system.run).

   Spec: grid:8x8, 128 objects, k = 2, Zipf 1.0, burst 4, rho = 0.38 (about
   0.75 rho* for this spec), greedy contention manager.  Arrivals follow
   the injection schedule whatever the backlog (an open loop in simulated
   time).  Both workloads draw byte-identical inputs from the seed, so
   their difference is the shard protocol.

   The timed sharded runs use a 1-domain pool: the cells take turns in
   each round, so the reading holds the protocol's own cost (messages,
   per-round Pool.map) and not the cross-core wake-ups of a 2-domain
   barrier, which a virtual machine with stolen CPU time makes too
   erratic to bound.  The traced run times the 2-domain pool as a
   reference (shard.speedup_2d). *)

module I = Dtm_workload.Injection
module O = Dtm_online.Open_system
module Pool = Dtm_util.Pool

let topology = Dtm_topology.Topology.Grid { rows = 8; cols = 8 }
let policy = Dtm_online.Policy.Timestamp { preemption = true }

(* Steps per bulk-synchronous round of Sharded.run; gives shard.rounds. *)
let round_steps = 4

(* Transactions per served stream. *)
let txns = 200_000

let rate = 0.38

let spec seed =
  {
    I.n = Dtm_topology.Topology.n topology;
    num_objects = 128;
    k = 2;
    rate;
    burst = 4;
    dist = I.Zipf_objects 1.0;
    seed;
  }

(* Generous enough to drain: the stream ends at step ~txns/rho. *)
let horizon ~txns = (3 * int_of_float (float_of_int txns /. rate)) + 10_000

(* The latency window spans every commit, so the percentiles cover the
   whole run rather than its last 65536 commits. *)
let serve ?probe ?pool ~shards ~txns ~metric ~homes spec =
  Dtm_online.Sharded.run ~policy ?probe ?pool ~round_steps ~latency_window:txns
    ~shards metric
    (I.source_factory ~limit:txns spec)
    ~homes ~horizon:(horizon ~txns)

(* The outputs every run must satisfy; names are the check names. *)
let checks ~txns (r : O.report) =
  [
    ("serve: bounded verdict", r.O.verdict = O.Bounded);
    ("serve: every transaction injected", r.O.injected = txns);
    ("serve: injected = committed + final_queue",
      r.O.injected = r.O.committed + r.O.final_queue);
    ("serve: drained", r.O.final_queue = 0);
  ]

let check_report ~txns ~reference r =
  let ok = ref true in
  List.iter (fun (name, c) -> ok := Measure.check name c && !ok) (checks ~txns r);
  Measure.check "serve: identical inputs give an identical report" (r = reference)
  && !ok

(* A probe that counts steps breaking conservation and, when [windows] is
   given, records the host time of every 1024-step window. *)
let probe ~violations ?windows () =
  let last = ref (Measure.now ()) in
  fun ~step ~injected ~committed ~queue ->
    if injected <> committed + queue then incr violations;
    match windows with
    | Some w when step land 1023 = 0 ->
      let t = Measure.now () in
      w := ((t -. !last) *. 1e6) :: !w;
      last := t
    | _ -> ()

(* The injection stream drained alone: the workload layer's share. *)
let draw ~txns spec =
  let src = I.source ~limit:txns spec in
  let n = ref 0 in
  while Dtm_online.Stream.pull src <> None do
    incr n
  done;
  !n

let run ~sharded ~txns (cfg : Measure.cfg) =
  let shards = if sharded then 2 else 1 in
  let name = if sharded then "serve-sharded" else "serve" in
  Measure.env ~workload:name ~seed:cfg.Measure.seed ~domains:1 ~reference_domains:shards
    ~rev:cfg.Measure.rev ();
  let spec = spec cfg.Measure.seed in
  (* Set-up: the metric, the homes and, when sharded, the pool. *)
  let setup () =
    let metric = Dtm_topology.Topology.metric topology in
    let homes = I.homes spec in
    let pool = if sharded then Some (Pool.create ~jobs:1) else None in
    (metric, homes, pool)
  in
  let setup_s, (metric, homes, pool) =
    Measure.median_time ~reps:200 ~discard:(fun (_, _, p) -> Option.iter Pool.shutdown p) setup
  in
  let go ?probe () = serve ?probe ?pool ~shards ~txns ~metric ~homes spec in
  let reference = go () in
  ignore (check_report ~txns ~reference reference);
  Measure.metric "top_heap_mb" (Measure.top_heap_mb ());
  let seconds = if !Measure.traced then cfg.Measure.seconds /. 2.0 else cfg.Measure.seconds in
  let samples = Measure.timed ~seconds (fun () -> go ()) in
  let failed =
    List.fold_left
      (fun acc (_, r) ->
        if check_report ~txns ~reference r then acc
        else acc + max 1 (txns - r.O.committed))
      0 samples
  in
  Measure.metric "setup_s" setup_s;
  let wall =
    Measure.throughputs ~instances:1
      ~what:(Printf.sprintf "stream of %d transactions" txns)
      (List.map (fun (w, r) -> (w, r.O.committed)) samples)
  in
  Measure.info "lat_p50_steps" "steps" (float_of_int reference.O.latency_p50);
  Measure.info "lat_p99_steps" "steps" (float_of_int reference.O.latency_p99);
  Measure.info "lat_p999_steps" "steps" (float_of_int reference.O.latency_p999);
  if !Measure.traced then begin
    (* Traced iterations: one span per Sharded.run call, conservation
       checked at every merged step, host time per 1024-step window. *)
    let violations = ref 0 and windows = ref [] in
    let layer = if sharded then "shard" else "online" in
    let traced =
      Measure.timed ~seconds (fun () ->
          let run = !Span.next_id in
          Span.with_ ~run ~layer:"bench" "iteration" (fun () ->
              Span.with_ ~run ~layer "Sharded.run" (fun () ->
                  go ~probe:(probe ~violations ~windows ()) ())))
    in
    List.iter (fun (_, r) -> ignore (check_report ~txns ~reference r)) traced;
    ignore (Measure.check "serve: conservation at every probed step" (!violations = 0));
    (* Reference runs, outside every timing above. *)
    let draw_s, _ = Measure.median_time ~reps:3 (fun () -> draw ~txns spec) in
    let metric_s, _ =
      Measure.median_time ~reps:50 (fun () -> Dtm_topology.Topology.metric topology)
    in
    let gc = Measure.gc_during (fun () -> go ()) in
    let unsharded_s, _ =
      if sharded then
        Measure.median_time ~reps:3 (fun () -> serve ~shards:1 ~txns ~metric ~homes spec)
      else (wall, reference)
    in
    Measure.metric "workload.draw_s" draw_s;
    Measure.metric "online.engine_s" (unsharded_s -. draw_s);
    Measure.metric "online.steps" (float_of_int reference.O.horizon);
    Measure.metric "online.window_us_p50" (Measure.percentile !windows 50.0);
    Measure.metric "online.window_us_p99" (Measure.percentile !windows 99.0);
    Measure.metric "online.queue_mean" reference.O.mean_queue;
    Measure.metric "online.queue_peak" (float_of_int reference.O.peak_queue);
    Measure.metric "online.forced_grants" (float_of_int reference.O.forced_grants);
    Measure.metric "online.preemptions" (float_of_int reference.O.preemptions);
    Measure.metric "online.travel" (float_of_int reference.O.total_travel);
    Measure.report_gc ~txns gc;
    Measure.metric "graph.metric_build_s" metric_s;
    if sharded then begin
      let rounds = (reference.O.horizon + round_steps - 1) / round_steps in
      let unsharded_gc =
        Measure.gc_during (fun () -> serve ~shards:1 ~txns ~metric ~homes spec)
      in
      Measure.metric "shard.overhead_s" (wall -. unsharded_s);
      Measure.metric "shard.rounds" (float_of_int rounds);
      Measure.metric "shard.round_us" (wall /. float_of_int rounds *. 1e6);
      Measure.metric "shard.alloc_ratio"
        (gc.Measure.minor_words /. unsharded_gc.Measure.minor_words);
      let two_s, _ =
        Pool.with_pool ~jobs:2 (fun pool ->
            Measure.median_time ~reps:3 (fun () -> serve ~pool ~shards ~txns ~metric ~homes spec))
      in
      Measure.metric "shard.speedup_2d" (wall /. two_s)
    end;
    (* Sharded.run is one call spanning three layers: the stream draws
       (each cell replays the stream, and the cells take turns on one
       domain), the frontier engine (the unsharded run on the same
       inputs) and the shard protocol (the rest). *)
    let adjust tbl =
      Span.move tbl ~src:layer ~dst:"workload" (float_of_int shards *. draw_s);
      if sharded then Span.move tbl ~src:layer ~dst:"online" (unsharded_s -. draw_s)
    in
    Span.report ~adjust ~untraced:wall ()
  end;
  Option.iter Pool.shutdown pool;
  (List.length samples * txns, failed)
