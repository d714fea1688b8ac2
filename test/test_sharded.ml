(* Property layer for the sharded open-system engine:

     - [Open_system.run] and [Sharded.run ~shards:1], two entry points
       of the one frontier engine, agree exactly (the full report and
       the commit sequence) on all seven paper topologies and every
       policy,
     - at shards in {2, 4}, conservation (injected = committed + queue)
       holds at every merged step and a finite stream drains completely,
     - the committed prefix of a sharded run is a legal DTM execution:
       it replays through the metric-descent walk and passes every DTM11x lint,
     - a fixed (spec, shards) is byte-identical at -j1 and -j4: the
       pool size may change the interleaving of rounds across domains
       but never the result,
     - full reports at shards in {1, 2, 3, 4} under every policy, on an
       injection source and on a non-monotone one (also at patience 1),
       match golden values, and the stream factory is called exactly
       once.  The one-shard rows were captured while one shard ran a
       separate implementation, so they pin the fold into one engine,
     - a 10^6-transaction steady-state run at shards = 4 stays on the
       frontier (live-heap bound) and allocates O(1) per transaction. *)

module Topology = Dtm_topology.Topology
module Prng = Dtm_util.Prng
module Pool = Dtm_util.Pool
module Stream = Dtm_online.Stream
module Policy = Dtm_online.Policy
module Open_system = Dtm_online.Open_system
module Sharded = Dtm_online.Sharded
module Injection = Dtm_workload.Injection

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let seed_gen = QCheck.int_range 0 1_000_000

let seven_topologies rng =
  let range lo hi = Prng.int_in_range rng ~lo ~hi in
  [
    Topology.Clique (range 4 24);
    Topology.Line (range 4 32);
    Topology.Grid { rows = range 2 5; cols = range 2 5 };
    Topology.Cluster
      {
        Dtm_topology.Cluster.clusters = range 2 4;
        size = range 2 5;
        bridge_weight = range 2 8;
      };
    Topology.Hypercube { dim = range 2 4 };
    Topology.Butterfly { dim = range 2 3 };
    Topology.Star { Dtm_topology.Star.rays = range 2 5; ray_len = range 1 6 };
  ]

let policies =
  [
    Policy.Timestamp { preemption = false };
    Policy.Timestamp { preemption = true };
    Policy.Nearest;
    Policy.Random_grant 5;
    Policy.Window_greedy { window = 8; seed = 2 };
  ]

let draw_policy rng = List.nth policies (Prng.int rng (List.length policies))

let spec_of rng ~n =
  let range lo hi = Prng.int_in_range rng ~lo ~hi in
  let dist =
    match Prng.int rng 3 with
    | 0 -> Injection.Uniform_objects
    | 1 -> Injection.Zipf_objects (0.5 +. Prng.float rng 1.0)
    | _ -> Injection.Hot_objects (Prng.float rng 0.9)
  in
  let num_objects = range 2 32 in
  {
    Injection.n;
    num_objects;
    k = Prng.int_in_range rng ~lo:1 ~hi:(min 3 num_objects);
    rate = 0.05 +. Prng.float rng 1.0;
    burst = range 1 6;
    dist;
    seed = Prng.int rng 1_000_000;
  }

let report_pair r =
  ( ( r.Open_system.horizon,
      r.Open_system.injected,
      r.Open_system.committed,
      r.Open_system.final_queue,
      r.Open_system.peak_queue,
      r.Open_system.mean_queue ),
    ( r.Open_system.latency_p50,
      r.Open_system.latency_p99,
      r.Open_system.latency_p999,
      r.Open_system.max_latency,
      r.Open_system.total_travel,
      r.Open_system.forced_grants,
      r.Open_system.preemptions,
      r.Open_system.verdict ) )

(* ------------------------------------------------------------------ *)
(* S1: both entry points drive the same one-shard engine              *)
(* ------------------------------------------------------------------ *)

let prop_one_shard_matches_open_system =
  qtest ~count:15 "S1: shards=1 = Open_system (report + commits), 7 topologies"
    seed_gen (fun seed ->
      let rng = Prng.create ~seed in
      List.for_all
        (fun topo ->
          let n = Topology.n topo in
          let policy = draw_policy rng in
          let spec = spec_of rng ~n in
          let limit = Prng.int_in_range rng ~lo:1 ~hi:150 in
          let metric = Topology.metric topo in
          let homes = Injection.homes spec in
          let horizon = Prng.int_in_range rng ~lo:10 ~hi:3_000 in
          let commits = ref [] in
          let on_commit ~id ~node ~step = commits := (id, node, step) :: !commits in
          let base =
            Open_system.run ~policy ~patience:10 ~on_commit metric
              (Injection.source ~limit spec)
              ~homes ~horizon
          in
          let base_commits = !commits in
          commits := [];
          let sharded =
            Sharded.run ~policy ~patience:10 ~on_commit ~shards:1 metric
              (Injection.source_factory ~limit spec)
              ~homes ~horizon
          in
          report_pair base = report_pair sharded && base_commits = !commits)
        (seven_topologies rng))

(* ------------------------------------------------------------------ *)
(* S2: conservation + drain at shards in {2, 4}                        *)
(* ------------------------------------------------------------------ *)

let prop_conservation_sharded =
  qtest ~count:20 "S2: sharded conservation at every merged step; drain"
    QCheck.(pair seed_gen (int_range 0 1))
    (fun (seed, si) ->
      let shards = if si = 0 then 2 else 4 in
      let rng = Prng.create ~seed in
      let spec = spec_of rng ~n:(Prng.int_in_range rng ~lo:2 ~hi:24) in
      let limit = Prng.int_in_range rng ~lo:1 ~hi:200 in
      let policy = draw_policy rng in
      let metric = Dtm_topology.Clique.metric spec.Injection.n in
      let violations = ref 0 in
      let steps = ref 0 in
      let probe ~step:_ ~injected ~committed ~queue =
        incr steps;
        if injected <> committed + queue then incr violations
      in
      let r =
        Sharded.run ~policy ~patience:10 ~probe ~shards metric
          (Injection.source_factory ~limit spec)
          ~homes:(Injection.homes spec) ~horizon:100_000
      in
      !violations = 0
      && !steps > 0
      && r.Open_system.injected = limit
      && r.Open_system.committed = limit
      && r.Open_system.final_queue = 0
      && r.Open_system.verdict = Open_system.Bounded)

(* ------------------------------------------------------------------ *)
(* S3: sharded committed prefixes pass the DTM11x lints                *)
(* ------------------------------------------------------------------ *)

let one_shot_stream rng topo =
  let n = Topology.n topo in
  let num_objects = Prng.int_in_range rng ~lo:1 ~hi:(max 1 (n / 2) + 1) in
  let issuers = Prng.int_in_range rng ~lo:1 ~hi:(min n 8) in
  let nodes = Array.to_list (Prng.sample_subset rng ~k:issuers ~n) in
  let txns =
    List.map
      (fun node ->
        let k = Prng.int_in_range rng ~lo:1 ~hi:(min 3 num_objects) in
        let objects = Array.to_list (Prng.sample_subset rng ~k ~n:num_objects) in
        { Stream.node; objects; arrival = 1 + Prng.int rng 20 })
      nodes
  in
  Stream.create ~n ~num_objects txns

let lint_prefix rng topo ~shards =
  let policy = draw_policy rng in
  let stream = one_shot_stream rng topo in
  let metric = Topology.metric topo in
  let homes = Stream.initial_homes ~rng stream in
  let horizon = Prng.int_in_range rng ~lo:10 ~hi:2_000 in
  let commits = ref [] in
  let on_commit ~id:_ ~node ~step = commits := (node, step) :: !commits in
  let _ =
    Sharded.run ~policy ~patience:10 ~on_commit ~shards metric
      (fun () -> Stream.to_source stream)
      ~homes ~horizon
  in
  match !commits with
  | [] -> true
  | commits ->
    let n = Stream.n stream in
    let committed_nodes = List.map fst commits in
    let txns =
      List.filter_map
        (fun v ->
          match Stream.queue_at stream v with
          | [ t ] when List.mem v committed_nodes -> Some (v, t.Stream.objects)
          | _ -> None)
        (List.init n (fun v -> v))
    in
    let inst =
      Dtm_core.Instance.create ~n
        ~num_objects:(Stream.num_objects stream)
        ~txns ~home:homes
    in
    let sched = Dtm_core.Schedule.of_times commits ~n in
    let graph = Topology.graph topo in
    let w = Dtm_sim.Replay.walk graph metric inst sched in
    w.Dtm_sim.Replay.ok
    && Dtm_analysis.Trace_lint.check ~graph ~metric inst ~commits:sched
         w.Dtm_sim.Replay.trace
       = []

let prop_lint_prefixes_sharded =
  qtest ~count:15
    "S3: sharded committed prefixes pass DTM11x lints, shards in {2, 4}"
    seed_gen (fun seed ->
      let rng = Prng.create ~seed in
      List.for_all
        (fun topo ->
          lint_prefix rng topo ~shards:2 && lint_prefix rng topo ~shards:4)
        (seven_topologies rng))

(* ------------------------------------------------------------------ *)
(* S4: the pool size never changes the result                          *)
(* ------------------------------------------------------------------ *)

let run_with_jobs ~jobs ~shards ~policy ~spec ~limit ~metric ~homes ~horizon =
  Pool.with_pool ~jobs (fun pool ->
      let commits = ref [] in
      let on_commit ~id ~node ~step = commits := (id, node, step) :: !commits in
      let r =
        Sharded.run ~policy ~patience:10 ~on_commit ~pool ~shards metric
          (Injection.source_factory ~limit spec)
          ~homes ~horizon
      in
      (report_pair r, !commits))

let prop_jobs_byte_identical =
  qtest ~count:25 "S4: -j1 = -j4 for a fixed (spec, shards)" seed_gen
    (fun seed ->
      let rng = Prng.create ~seed in
      let shards = List.nth [ 2; 3; 4 ] (Prng.int rng 3) in
      let spec = spec_of rng ~n:(Prng.int_in_range rng ~lo:2 ~hi:24) in
      let limit = Prng.int_in_range rng ~lo:1 ~hi:200 in
      let policy = draw_policy rng in
      let metric = Dtm_topology.Clique.metric spec.Injection.n in
      let homes = Injection.homes spec in
      let horizon = Prng.int_in_range rng ~lo:10 ~hi:5_000 in
      let a =
        run_with_jobs ~jobs:1 ~shards ~policy ~spec ~limit ~metric ~homes
          ~horizon
      in
      let b =
        run_with_jobs ~jobs:4 ~shards ~policy ~spec ~limit ~metric ~homes
          ~horizon
      in
      a = b)

(* ------------------------------------------------------------------ *)
(* Frontier-boundedness of the sharded 10^6-transaction run            *)
(* ------------------------------------------------------------------ *)

let test_sharded_steady_state_allocation () =
  let txns = 1_000_000 in
  let spec =
    {
      Injection.n = 32;
      num_objects = 128;
      k = 2;
      rate = 1.0;
      burst = 4;
      dist = Injection.Zipf_objects 1.0;
      seed = 7;
    }
  in
  let metric = Dtm_topology.Clique.metric spec.Injection.n in
  let homes = Injection.homes spec in
  (* jobs = 1 so Gc counters see every domain's allocation. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      Gc.full_major ();
      let live0 = (Gc.stat ()).Gc.live_words in
      let live_peak = ref live0 in
      let probe ~step ~injected:_ ~committed:_ ~queue:_ =
        if step mod 250_000 = 0 then begin
          Gc.full_major ();
          let lw = (Gc.stat ()).Gc.live_words in
          if lw > !live_peak then live_peak := lw
        end
      in
      let words_before = Gc.minor_words () in
      let r =
        Sharded.run
          ~policy:(Policy.Timestamp { preemption = true })
          ~probe ~pool ~shards:4 metric
          (Injection.source_factory ~limit:txns spec)
          ~homes ~horizon:(4 * txns)
      in
      let words = Gc.minor_words () -. words_before in
      Alcotest.(check int)
        "all transactions committed" txns r.Open_system.committed;
      Alcotest.(check bool)
        "verdict bounded" true
        (r.Open_system.verdict = Open_system.Bounded);
      let live_growth = !live_peak - live0 in
      Alcotest.(check bool)
        (Printf.sprintf "live heap stays at the frontier (grew %d words)"
           live_growth)
        true
        (live_growth < 3_000_000);
      (* The per-transaction constant is the generator's share of the
         unsharded engine's plus the protocol's own messages and proxy
         records; the bound trips on anything super-linear in the
         history. *)
      let per_txn = words /. float_of_int txns in
      Alcotest.(check bool)
        (Printf.sprintf "allocation is O(1) per transaction (%.1f words/txn)"
           per_txn)
        true (per_txn < 1_200.0))

(* ------------------------------------------------------------------ *)
(* Golden reports: S in {1, 2, 3, 4} x every policy                    *)
(* ------------------------------------------------------------------ *)

let golden_policies =
  [
    Policy.Timestamp { preemption = false };
    Policy.Timestamp { preemption = true };
    Policy.Nearest;
    Policy.Random_grant 3;
    Policy.Window_greedy { window = 8; seed = 4 };
    Policy.Backoff { seed = 5; limit = 6 };
  ]

(* Every report field; the mean backlog in hex so the pin is exact. *)
let render (r : Open_system.report) =
  Printf.sprintf
    "h=%d inj=%d com=%d fq=%d pq=%d mq=%h p50=%d p99=%d p999=%d max=%d tr=%d \
     fg=%d pr=%d %s"
    r.Open_system.horizon r.Open_system.injected r.Open_system.committed
    r.Open_system.final_queue r.Open_system.peak_queue r.Open_system.mean_queue
    r.Open_system.latency_p50 r.Open_system.latency_p99
    r.Open_system.latency_p999 r.Open_system.max_latency
    r.Open_system.total_travel r.Open_system.forced_grants
    r.Open_system.preemptions
    (Open_system.verdict_to_string r.Open_system.verdict)

let golden_metric =
  Topology.metric (Topology.Grid { rows = 6; cols = 6 })

let golden_spec =
  {
    Injection.n = 36;
    num_objects = 32;
    k = 2;
    rate = 0.15;
    burst = 3;
    dist = Injection.Zipf_objects 1.0;
    seed = 17;
  }

(* A deliberately non-monotone source: arrivals jitter by up to +-4
   steps around a rate of 1/3, so the injection-step rule (a
   transaction enters no earlier than its predecessor) and the
   non-monotone grant paths are pinned too. *)
let jittered () =
  let rng = Prng.create ~seed:23 in
  let i = ref 0 in
  Stream.make_source ~n:36 ~num_objects:32 (fun () ->
      if !i >= 2000 then None
      else begin
        let arrival = max 1 (1 + (!i * 3) + Prng.int rng 9 - 4) in
        incr i;
        let node = Prng.int rng 36 in
        let o1 = Prng.int rng 32 in
        let o2 = (o1 + 1 + Prng.int rng 31) mod 32 in
        Some { Stream.node; objects = [ o1; o2 ]; arrival }
      end)

(* (shards, policy, report, digest of the on_commit sequence) *)
let golden_injection =
  [
    (2, "timestamp", "h=20012 inj=3000 com=3000 fq=0 pq=6 mq=0x1.6b2604cf5687p+0 p50=9 p99=25 p999=34 max=46 tr=23115 fg=213 pr=0 bounded", 69020316228158);
    (2, "timestamp+preemption (Greedy CM)", "h=20012 inj=3000 com=3000 fq=0 pq=6 mq=0x1.6b2604cf5687p+0 p50=9 p99=25 p999=34 max=46 tr=23115 fg=213 pr=0 bounded", 69020316228158);
    (2, "nearest", "h=20012 inj=3000 com=3000 fq=0 pq=5 mq=0x1.685f612ba5bccp+0 p50=9 p99=26 p999=41 max=45 tr=22397 fg=228 pr=0 bounded", 234370063512199);
    (2, "random", "h=20012 inj=3000 com=3000 fq=0 pq=12 mq=0x1.8f0e7b1d03537p+0 p50=9 p99=49 p999=83 max=151 tr=23367 fg=254 pr=0 bounded", 80205669731399);
    (2, "window-greedy", "h=20012 inj=3000 com=3000 fq=0 pq=6 mq=0x1.6d425dd830b69p+0 p50=9 p99=26 p999=33 max=46 tr=23189 fg=227 pr=0 bounded", 146225732452125);
    (2, "randomized-backoff", "h=20012 inj=3000 com=3000 fq=0 pq=11 mq=0x1.89af0cd7ef377p+0 p50=9 p99=41 p999=107 max=121 tr=23253 fg=256 pr=0 bounded", 107559963260959);
    (3, "timestamp", "h=20020 inj=3000 com=3000 fq=0 pq=5 mq=0x1.8c2fabb4e9da4p+0 p50=12 p99=25 p999=34 max=37 tr=23127 fg=345 pr=0 bounded", 251607018428285);
    (3, "timestamp+preemption (Greedy CM)", "h=20020 inj=3000 com=3000 fq=0 pq=5 mq=0x1.8c2fabb4e9da4p+0 p50=12 p99=25 p999=34 max=37 tr=23127 fg=345 pr=0 bounded", 251607018428285);
    (3, "nearest", "h=20020 inj=3000 com=3000 fq=0 pq=7 mq=0x1.8e142713e59b7p+0 p50=11 p99=26 p999=45 max=65 tr=22449 fg=368 pr=0 bounded", 84278181452331);
    (3, "random", "h=20020 inj=3000 com=3000 fq=0 pq=15 mq=0x1.c9f613be532bp+0 p50=13 p99=60 p999=163 max=179 tr=23437 fg=405 pr=0 bounded", 101987204886870);
    (3, "window-greedy", "h=20020 inj=3000 com=3000 fq=0 pq=6 mq=0x1.92180a3ad238cp+0 p50=12 p99=25 p999=33 max=37 tr=23247 fg=380 pr=0 bounded", 229100459280221);
    (3, "randomized-backoff", "h=20020 inj=3000 com=3000 fq=0 pq=16 mq=0x1.cec4ec4ec4ec5p+0 p50=13 p99=61 p999=135 max=161 tr=23483 fg=415 pr=0 bounded", 199277889167500);
    (4, "timestamp", "h=20012 inj=3000 com=3000 fq=0 pq=6 mq=0x1.a1600b7640936p+0 p50=13 p99=26 p999=33 max=34 tr=23127 fg=432 pr=0 bounded", 250127982117819);
    (4, "timestamp+preemption (Greedy CM)", "h=20012 inj=3000 com=3000 fq=0 pq=6 mq=0x1.a1600b7640936p+0 p50=13 p99=26 p999=33 max=34 tr=23127 fg=432 pr=0 bounded", 250127982117819);
    (4, "nearest", "h=20012 inj=3000 com=3000 fq=0 pq=6 mq=0x1.a54a24f1b948bp+0 p50=13 p99=29 p999=42 max=45 tr=22547 fg=452 pr=0 bounded", 228499946264841);
    (4, "random", "h=20012 inj=3000 com=3000 fq=0 pq=9 mq=0x1.bfefa03608e75p+0 p50=13 p99=41 p999=77 max=86 tr=23365 fg=476 pr=0 bounded", 145588417717736);
    (4, "window-greedy", "h=20012 inj=3000 com=3000 fq=0 pq=6 mq=0x1.a4788e0bc4d93p+0 p50=13 p99=26 p999=33 max=41 tr=23267 fg=449 pr=0 bounded", 222710741018461);
    (4, "randomized-backoff", "h=20012 inj=3000 com=3000 fq=0 pq=13 mq=0x1.cfdccba75ff14p+0 p50=13 p99=53 p999=122 max=133 tr=23445 fg=487 pr=0 bounded", 22946632660233);
  ]

let golden_jittered =
  [
    (2, "timestamp", "h=6016 inj=2000 com=2000 fq=0 pq=10 mq=0x1.597d46cefa8dap+1 p50=9 p99=23 p999=40 max=41 tr=15668 fg=11 pr=0 bounded", 215960802778820);
    (2, "timestamp+preemption (Greedy CM)", "h=6016 inj=2000 com=2000 fq=0 pq=7 mq=0x1.57d9df51b3beap+1 p50=9 p99=22 p999=27 max=28 tr=15698 fg=10 pr=12 bounded", 61612083861581);
    (2, "nearest", "h=6016 inj=2000 com=2000 fq=0 pq=8 mq=0x1.51f51b3bea367p+1 p50=9 p99=22 p999=44 max=45 tr=15518 fg=12 pr=0 bounded", 77464457198038);
    (2, "random", "h=6016 inj=2000 com=2000 fq=0 pq=9 mq=0x1.5a46cefa8d9dfp+1 p50=9 p99=25 p999=41 max=51 tr=15639 fg=14 pr=0 bounded", 160523494576833);
    (2, "window-greedy", "h=6016 inj=2000 com=2000 fq=0 pq=9 mq=0x1.5b15c9882b931p+1 p50=9 p99=24 p999=41 max=47 tr=15688 fg=11 pr=0 bounded", 241715855623811);
    (2, "randomized-backoff", "h=6016 inj=2000 com=2000 fq=0 pq=9 mq=0x1.5a10572620ae5p+1 p50=9 p99=25 p999=40 max=41 tr=15681 fg=14 pr=0 bounded", 106672271126405);
    (3, "timestamp", "h=6012 inj=2000 com=2000 fq=0 pq=13 mq=0x1.7d8d3344a431cp+1 p50=10 p99=25 p999=63 max=68 tr=15664 fg=40 pr=0 bounded", 46654566651065);
    (3, "timestamp+preemption (Greedy CM)", "h=6012 inj=2000 com=2000 fq=0 pq=9 mq=0x1.784af185b4b74p+1 p50=10 p99=24 p999=32 max=36 tr=15712 fg=41 pr=21 bounded", 32762413722462);
    (3, "nearest", "h=6012 inj=2000 com=2000 fq=0 pq=13 mq=0x1.796bd0fd71f2bp+1 p50=10 p99=26 p999=63 max=74 tr=15530 fg=46 pr=0 bounded", 268663197445097);
    (3, "random", "h=6012 inj=2000 com=2000 fq=0 pq=13 mq=0x1.7fc40b950907p+1 p50=10 p99=28 p999=63 max=86 tr=15666 fg=40 pr=0 bounded", 143820487550237);
    (3, "window-greedy", "h=6012 inj=2000 com=2000 fq=0 pq=8 mq=0x1.74e8531e7d04fp+1 p50=10 p99=23 p999=30 max=31 tr=15666 fg=42 pr=0 bounded", 196448784397059);
    (3, "randomized-backoff", "h=6012 inj=2000 com=2000 fq=0 pq=11 mq=0x1.7d77660678ee7p+1 p50=10 p99=29 p999=77 max=95 tr=15642 fg=42 pr=0 bounded", 92200867258227);
    (4, "timestamp", "h=6016 inj=2000 com=2000 fq=0 pq=9 mq=0x1.8f4c415c9882cp+1 p50=10 p99=25 p999=40 max=41 tr=15675 fg=63 pr=0 bounded", 94292235066247);
    (4, "timestamp+preemption (Greedy CM)", "h=6016 inj=2000 com=2000 fq=0 pq=8 mq=0x1.8d9310572620bp+1 p50=10 p99=24 p999=36 max=36 tr=15726 fg=61 pr=19 bounded", 100671148439166);
    (4, "nearest", "h=6016 inj=2000 com=2000 fq=0 pq=9 mq=0x1.8e77d46cefa8ep+1 p50=10 p99=26 p999=45 max=50 tr=15565 fg=72 pr=0 bounded", 7521887714744);
    (4, "random", "h=6016 inj=2000 com=2000 fq=0 pq=9 mq=0x1.9277d46cefa8ep+1 p50=10 p99=28 p999=41 max=44 tr=15661 fg=70 pr=0 bounded", 4879722184502);
    (4, "window-greedy", "h=6016 inj=2000 com=2000 fq=0 pq=9 mq=0x1.9282b93105726p+1 p50=10 p99=27 p999=41 max=43 tr=15695 fg=66 pr=0 bounded", 158723867027970);
    (4, "randomized-backoff", "h=6016 inj=2000 com=2000 fq=0 pq=9 mq=0x1.92fa8d9df51b4p+1 p50=10 p99=27 p999=44 max=45 tr=15688 fg=72 pr=0 bounded", 143618474242902);
  ]

(* One shard, captured while it was still a separate implementation (the
   open-system engine that the sharded cell now subsumes), so these rows
   carry the cross-check between the two. *)
let golden_injection_s1 =
  [
    (1, "timestamp", "h=20010 inj=3000 com=3000 fq=0 pq=4 mq=0x1.e110a842efa65p-1 p50=7 p99=17 p999=23 max=26 tr=23115 fg=0 pr=0 bounded", 255396591224433);
    (1, "timestamp+preemption (Greedy CM)", "h=20010 inj=3000 com=3000 fq=0 pq=4 mq=0x1.e110a842efa65p-1 p50=7 p99=17 p999=23 max=26 tr=23115 fg=0 pr=0 bounded", 255396591224433);
    (1, "nearest", "h=20009 inj=3000 com=3000 fq=0 pq=5 mq=0x1.cfd11f348536bp-1 p50=6 p99=19 p999=29 max=30 tr=22175 fg=14 pr=0 bounded", 74692974782686);
    (1, "random", "h=20009 inj=3000 com=3000 fq=0 pq=9 mq=0x1.05aaf82ec697ap+0 p50=7 p99=28 p999=60 max=73 tr=23123 fg=29 pr=0 bounded", 235192782506830);
    (1, "window-greedy", "h=20009 inj=3000 com=3000 fq=0 pq=4 mq=0x1.e1fc15c00deb9p-1 p50=7 p99=17 p999=21 max=25 tr=23125 fg=0 pr=0 bounded", 7596498259170);
    (1, "randomized-backoff", "h=20010 inj=3000 com=3000 fq=0 pq=7 mq=0x1.02023353f39dap+0 p50=7 p99=25 p999=53 max=62 tr=23201 fg=34 pr=0 bounded", 129739437517299);
  ]

let golden_jittered_s1 =
  [
    (1, "timestamp", "h=6002 inj=2000 com=2000 fq=0 pq=5 mq=0x1.d16180e54cb07p+0 p50=7 p99=14 p999=18 max=22 tr=15654 fg=0 pr=0 bounded", 67740569332293);
    (1, "timestamp+preemption (Greedy CM)", "h=6002 inj=2000 com=2000 fq=0 pq=5 mq=0x1.d14baa5a98037p+0 p50=7 p99=14 p999=18 max=22 tr=15654 fg=0 pr=2 bounded", 62754567786719);
    (1, "nearest", "h=6002 inj=2000 com=2000 fq=0 pq=5 mq=0x1.cb323e9d21b21p+0 p50=7 p99=14 p999=19 max=19 tr=15524 fg=0 pr=0 bounded", 255247588704012);
    (1, "random", "h=20000 inj=2000 com=1719 fq=281 pq=1059 mq=0x1.1e530f27bb2ffp+9 p50=1944 p99=14653 p999=14894 max=14911 tr=20318 fg=1788 pr=0 bounded", 39067860475130);
    (1, "window-greedy", "h=6002 inj=2000 com=2000 fq=0 pq=5 mq=0x1.d3a436410098ep+0 p50=7 p99=15 p999=19 max=20 tr=15676 fg=0 pr=0 bounded", 270347690005036);
    (1, "randomized-backoff", "h=20000 inj=2000 com=1724 fq=276 pq=1046 mq=0x1.1bbb67a0f9097p+9 p50=1705 p99=14636 p999=14888 max=14905 tr=20343 fg=1756 pr=0 bounded", 45457468070085);
  ]

(* Patience 1 fires the watchdog on a non-monotone source almost every
   idle step: the setting where the multi-shard watchdog guards, applied
   at one shard, would change the report. *)
let golden_jittered_patience1 =
  [
    (1, "timestamp", "h=6002 inj=2000 com=2000 fq=0 pq=7 mq=0x1.d4f6b3a6f1125p+0 p50=7 p99=15 p999=27 max=30 tr=15684 fg=7 pr=0 bounded", 279882284907493);
    (1, "timestamp+preemption (Greedy CM)", "h=6002 inj=2000 com=2000 fq=0 pq=7 mq=0x1.d4e0dd1c3c655p+0 p50=7 p99=15 p999=27 max=30 tr=15684 fg=7 pr=2 bounded", 274896283361919);
    (1, "nearest", "h=6002 inj=2000 com=2000 fq=0 pq=6 mq=0x1.cc590eeda8d18p+0 p50=7 p99=15 p999=22 max=23 tr=15542 fg=6 pr=0 bounded", 196504497961643);
    (1, "random", "h=6002 inj=2000 com=2000 fq=0 pq=7 mq=0x1.d543228c696fdp+0 p50=7 p99=15 p999=27 max=30 tr=15678 fg=6 pr=0 bounded", 39648182970018);
    (1, "window-greedy", "h=6002 inj=2000 com=2000 fq=0 pq=6 mq=0x1.d5e6eb9cb4815p+0 p50=7 p99=16 p999=22 max=23 tr=15708 fg=8 pr=0 bounded", 267870130427265);
    (1, "randomized-backoff", "h=6002 inj=2000 com=2000 fq=0 pq=6 mq=0x1.d2678f65c4cc6p+0 p50=7 p99=15 p999=22 max=23 tr=15651 fg=6 pr=0 bounded", 126005052960343);
    (2, "timestamp", "h=6016 inj=2000 com=2000 fq=0 pq=8 mq=0x1.58cefa8d9df52p+1 p50=9 p99=23 p999=29 max=38 tr=15682 fg=236 pr=0 bounded", 100461683607586);
    (2, "timestamp+preemption (Greedy CM)", "h=6016 inj=2000 com=2000 fq=0 pq=7 mq=0x1.57d9df51b3beap+1 p50=9 p99=22 p999=27 max=28 tr=15698 fg=233 pr=12 bounded", 61612083861581);
    (2, "nearest", "h=6016 inj=2000 com=2000 fq=0 pq=8 mq=0x1.572620ae4c416p+1 p50=9 p99=24 p999=36 max=40 tr=15586 fg=252 pr=0 bounded", 90837087548916);
    (2, "random", "h=6016 inj=2000 com=2000 fq=0 pq=7 mq=0x1.5820ae4c415cap+1 p50=9 p99=23 p999=35 max=43 tr=15702 fg=247 pr=0 bounded", 187670443903060);
    (2, "window-greedy", "h=6016 inj=2000 com=2000 fq=0 pq=8 mq=0x1.58fa8d9df51b4p+1 p50=9 p99=23 p999=31 max=38 tr=15728 fg=243 pr=0 bounded", 148873375771732);
    (2, "randomized-backoff", "h=6016 inj=2000 com=2000 fq=0 pq=7 mq=0x1.5bc415c9882b9p+1 p50=9 p99=25 p999=43 max=49 tr=15710 fg=246 pr=0 bounded", 67066827048877);
    (3, "timestamp", "h=6012 inj=2000 com=2000 fq=0 pq=9 mq=0x1.78973fdf4c22cp+1 p50=10 p99=24 p999=32 max=36 tr=15682 fg=427 pr=0 bounded", 133066887549910);
    (3, "timestamp+preemption (Greedy CM)", "h=6012 inj=2000 com=2000 fq=0 pq=9 mq=0x1.796bd0fd71f2bp+1 p50=10 p99=24 p999=32 max=36 tr=15716 fg=412 pr=23 bounded", 93790480144373);
    (3, "nearest", "h=6012 inj=2000 com=2000 fq=0 pq=8 mq=0x1.7670c17d87bffp+1 p50=10 p99=24 p999=35 max=37 tr=15588 fg=446 pr=0 bounded", 37628237252163);
    (3, "random", "h=6012 inj=2000 com=2000 fq=0 pq=8 mq=0x1.7a716fe7791a1p+1 p50=10 p99=27 p999=40 max=48 tr=15722 fg=441 pr=0 bounded", 4924337984193);
    (3, "window-greedy", "h=6012 inj=2000 com=2000 fq=0 pq=8 mq=0x1.7791a0f544fb6p+1 p50=10 p99=24 p999=29 max=30 tr=15712 fg=434 pr=0 bounded", 187826097318496);
    (3, "randomized-backoff", "h=6012 inj=2000 com=2000 fq=0 pq=8 mq=0x1.7a2a94dd6c7f6p+1 p50=10 p99=27 p999=37 max=40 tr=15694 fg=434 pr=0 bounded", 142247429807740);
    (4, "timestamp", "h=6016 inj=2000 com=2000 fq=0 pq=8 mq=0x1.8fe4c415c9883p+1 p50=10 p99=25 p999=38 max=39 tr=15695 fg=557 pr=0 bounded", 25156647315549);
    (4, "timestamp+preemption (Greedy CM)", "h=6016 inj=2000 com=2000 fq=0 pq=9 mq=0x1.914c415c9882cp+1 p50=10 p99=25 p999=36 max=41 tr=15750 fg=534 pr=23 bounded", 126807947340187);
    (4, "nearest", "h=6016 inj=2000 com=2000 fq=0 pq=8 mq=0x1.90a8d9df51b3cp+1 p50=10 p99=27 p999=41 max=47 tr=15655 fg=575 pr=0 bounded", 195491366820427);
    (4, "random", "h=6016 inj=2000 com=2000 fq=0 pq=10 mq=0x1.9eefa8d9df51bp+1 p50=10 p99=33 p999=64 max=65 tr=15803 fg=574 pr=0 bounded", 1919117205490);
    (4, "window-greedy", "h=6016 inj=2000 com=2000 fq=0 pq=8 mq=0x1.927d46cefa8dap+1 p50=10 p99=27 p999=41 max=47 tr=15749 fg=574 pr=0 bounded", 176613370810329);
    (4, "randomized-backoff", "h=6016 inj=2000 com=2000 fq=0 pq=8 mq=0x1.97415c9882b93p+1 p50=10 p99=30 p999=41 max=47 tr=15747 fg=579 pr=0 bounded", 101616624526445);
  ]

let check_golden ?(patience = 8) name ~make_source ~homes ~horizon expected =
  List.iter
    (fun (shards, pname, report, digest) ->
      let policy =
        List.find (fun p -> Policy.to_string p = pname) golden_policies
      in
      let label = Printf.sprintf "%s S=%d %s" name shards pname in
      let run ?on_commit () =
        Sharded.run ~policy ~patience ?on_commit ~shards golden_metric
          make_source ~homes ~horizon
      in
      Alcotest.(check string) label report (render (run ()));
      let d = ref 0 in
      let on_commit ~id ~node ~step =
        d := ((!d * 31) + (id * 7919) + (node * 104729) + step) land 0xFFFFFFFFFFFF
      in
      Alcotest.(check string) (label ^ " (on_commit)") report
        (render (run ~on_commit ()));
      Alcotest.(check int) (label ^ " commit digest") digest !d)
    expected

let golden_injection_case rows () =
  check_golden "injection"
    ~make_source:(Injection.source_factory ~limit:3000 golden_spec)
    ~homes:(Injection.homes golden_spec) ~horizon:30_000 rows

let golden_jittered_case ?patience name rows () =
  check_golden ?patience name ~make_source:jittered
    ~homes:(Array.init 32 (fun o -> o * 7 mod 36))
    ~horizon:20_000 rows

(* The stream is drawn once per run, at any shard count. *)
let test_factory_called_once () =
  List.iter
    (fun shards ->
      let calls = ref 0 in
      let make_source () =
        incr calls;
        Injection.source ~limit:200 golden_spec
      in
      let r =
        Sharded.run ~shards golden_metric make_source
          ~homes:(Injection.homes golden_spec) ~horizon:5_000
      in
      Alcotest.(check int)
        (Printf.sprintf "S=%d: all drained" shards)
        200 r.Open_system.committed;
      Alcotest.(check int) (Printf.sprintf "S=%d: one factory call" shards) 1 !calls)
    [ 1; 2; 3; 4; 8 ]

let () =
  Alcotest.run "dtm_sharded"
    [
      ("delegation", [ prop_one_shard_matches_open_system ]);
      ("conservation", [ prop_conservation_sharded ]);
      ("trace-lints", [ prop_lint_prefixes_sharded ]);
      ("determinism", [ prop_jobs_byte_identical ]);
      ( "golden",
        [
          Alcotest.test_case "injection source, S=2..4, every policy" `Quick
            (golden_injection_case golden_injection);
          Alcotest.test_case "non-monotone source, S=2..4, every policy" `Quick
            (golden_jittered_case "jittered" golden_jittered);
          Alcotest.test_case "injection source, S=1, every policy" `Quick
            (golden_injection_case golden_injection_s1);
          Alcotest.test_case "non-monotone source, S=1, every policy" `Quick
            (golden_jittered_case "jittered" golden_jittered_s1);
          Alcotest.test_case "non-monotone source, patience 1, S=1..4" `Quick
            (golden_jittered_case ~patience:1 "jittered patience 1"
               golden_jittered_patience1);
          Alcotest.test_case "stream factory called once" `Quick
            test_factory_called_once;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "sharded steady-state frontier" `Slow
            test_sharded_steady_state_allocation;
        ] );
    ]
