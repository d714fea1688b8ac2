(* Benchmark harness: one bechamel test per experiment (E1-E8: the cost of
   computing each theorem's schedule), plus the DESIGN.md ablations
   (coloring strategy, grid subgrid side, cluster approach) and substrate
   micro-benchmarks.  Run with: dune exec bench/main.exe

   Flags:
     --json        also write BENCH.json (machine-readable name ->
                   time/run ms, with git rev and config) next to the
                   text table; the file is gitignored.
     --quota-ms N  per-test time quota in milliseconds (default 500);
                   CI runs a ~50 ms smoke so the harness cannot bitrot.
     -j/--jobs N   domain-pool width for the kernels that fan out on
                   Dtm_util.Pool (lower_bound, apsp); -j 1 isolates the
                   single-domain algorithmic cost. *)

open Bechamel
open Toolkit

let rng_of seed = Dtm_util.Prng.create ~seed

(* Pre-generated inputs: generation cost must stay out of the timings. *)

let clique_n = 128
let clique_inst =
  Dtm_workload.Uniform.instance ~rng:(rng_of 1) ~n:clique_n ~num_objects:32 ~k:3 ()

let hyper_dim = 7
let hyper_metric = Dtm_topology.Hypercube.metric ~dim:hyper_dim
let hyper_inst =
  Dtm_workload.Uniform.instance ~rng:(rng_of 2) ~n:(1 lsl hyper_dim)
    ~num_objects:32 ~k:2 ()

let line_n = 1024
let line_inst =
  Dtm_workload.Arbitrary.windowed ~rng:(rng_of 3) ~n:line_n ~num_objects:line_n
    ~k:2 ~span:16

let grid_side = 16
let grid_inst =
  Dtm_workload.Uniform.instance ~rng:(rng_of 4) ~n:(grid_side * grid_side)
    ~num_objects:32 ~k:2 ()

let cluster_p =
  { Dtm_topology.Cluster.clusters = 6; size = 8; bridge_weight = 16 }
let cluster_inst =
  Dtm_workload.Arbitrary.cluster_spread ~rng:(rng_of 5) cluster_p
    ~num_objects:18 ~k:2 ~sigma:4

let star_p = { Dtm_topology.Star.rays = 6; ray_len = 15 }
let star_inst =
  Dtm_workload.Uniform.instance ~rng:(rng_of 6)
    ~n:(1 + (star_p.Dtm_topology.Star.rays * star_p.Dtm_topology.Star.ray_len))
    ~num_objects:22 ~k:2 ()

let blocks_p = Dtm_topology.Blocks.make ~s:9
let block_metric = Dtm_topology.Block_grid.metric blocks_p
let block_inst = Dtm_workload.Lb_instance.instance ~rng:(rng_of 7) blocks_p

let clique_metric = Dtm_topology.Clique.metric clique_n
let line_metric = Dtm_topology.Line.metric line_n
let grid_metric = Dtm_topology.Grid.metric ~rows:grid_side ~cols:grid_side
let grid_graph = Dtm_topology.Grid.graph ~rows:grid_side ~cols:grid_side

let clique_dep = Dtm_core.Dependency.build clique_metric clique_inst
let cluster_metric = Dtm_topology.Cluster.metric cluster_p
let cluster_dep = Dtm_core.Dependency.build cluster_metric cluster_inst

let grid_sched = Dtm_sched.Grid_sched.schedule ~rows:grid_side ~cols:grid_side grid_inst

(* Warm shared routers: the steady-state kernels measure pure replay /
   congestion cost; the [_cold] kernel keeps the per-call Dijkstra price
   visible. *)
let grid_router =
  let r = Dtm_sim.Router.create grid_graph in
  Dtm_sim.Router.warm_all r;
  r

let stage = Staged.stage

(* One test per experiment: the cost of the theorem's scheduler. *)
let experiment_tests =
  Test.make_grouped ~name:"experiments"
    [
      Test.make ~name:"e1_clique_thm1" (stage (fun () ->
          Dtm_sched.Clique_sched.schedule ~n:clique_n clique_inst));
      Test.make ~name:"e2_hypercube_sec31" (stage (fun () ->
          Dtm_sched.Diameter_sched.schedule hyper_metric hyper_inst));
      Test.make ~name:"e3_line_thm2" (stage (fun () ->
          Dtm_sched.Line_sched.schedule ~n:line_n line_inst));
      Test.make ~name:"e4_grid_thm3" (stage (fun () ->
          Dtm_sched.Grid_sched.schedule ~rows:grid_side ~cols:grid_side grid_inst));
      Test.make ~name:"e5_cluster_thm4" (stage (fun () ->
          Dtm_sched.Cluster_sched.schedule
            ~approach:(Dtm_sched.Cluster_sched.Best { seed = 1 })
            cluster_p cluster_inst));
      Test.make ~name:"e6_star_thm5" (stage (fun () ->
          Dtm_sched.Star_sched.schedule
            ~variant:(Dtm_sched.Star_sched.Best_periods { seed = 1 })
            star_p star_inst));
      Test.make ~name:"e7_blockgrid_sec8" (stage (fun () ->
          Dtm_core.Greedy.schedule block_metric block_inst));
      Test.make ~name:"e8_coloring_sec23" (stage (fun () ->
          Dtm_core.Coloring.greedy clique_dep clique_inst));
    ]

(* DESIGN.md ablations. *)
let ablation_tests =
  Test.make_grouped ~name:"ablations"
    [
      Test.make ~name:"coloring_slotted" (stage (fun () ->
          Dtm_core.Coloring.greedy ~strategy:Dtm_core.Coloring.Slotted
            cluster_dep cluster_inst));
      Test.make ~name:"coloring_compact" (stage (fun () ->
          Dtm_core.Coloring.greedy ~strategy:Dtm_core.Coloring.Compact
            cluster_dep cluster_inst));
      Test.make ~name:"grid_xi_half" (stage (fun () ->
          Dtm_sched.Grid_sched.schedule ~subgrid_side:4 ~rows:grid_side
            ~cols:grid_side grid_inst));
      Test.make ~name:"grid_xi_double" (stage (fun () ->
          Dtm_sched.Grid_sched.schedule ~subgrid_side:16 ~rows:grid_side
            ~cols:grid_side grid_inst));
      Test.make ~name:"cluster_approach1" (stage (fun () ->
          Dtm_sched.Cluster_sched.schedule ~approach:Dtm_sched.Cluster_sched.Approach1
            cluster_p cluster_inst));
      Test.make ~name:"cluster_approach2" (stage (fun () ->
          Dtm_sched.Cluster_sched.schedule
            ~approach:(Dtm_sched.Cluster_sched.Approach2 { seed = 1 })
            cluster_p cluster_inst));
      Test.make ~name:"tsp_lb_exact12" (stage (fun () ->
          Dtm_graph.Tsp.exact_path_length line_metric
            [ 3; 99; 200; 311; 402; 489; 555; 678; 740; 803; 901; 1000 ]));
      Test.make ~name:"tsp_lb_mst12" (stage (fun () ->
          Dtm_graph.Tsp.lower_bound line_metric
            [ 3; 99; 200; 311; 402; 489; 555; 678; 740; 803; 901; 1000 ]));
    ]

(* Extensions: ring scheduler, congestion engine, exact optima. *)
let tiny_inst =
  Dtm_workload.Uniform.instance ~rng:(rng_of 8) ~n:7 ~num_objects:3 ~k:2 ()

let ring_n = 512
let ring_inst =
  Dtm_workload.Arbitrary.windowed ~rng:(rng_of 9) ~n:ring_n ~num_objects:ring_n
    ~k:2 ~span:16

let star_graph = Dtm_topology.Star.graph star_p
let star_metric = Dtm_topology.Star.metric star_p
let star_priority = Dtm_sim.Engine.run star_metric star_inst

let star_router =
  let r = Dtm_sim.Router.create star_graph in
  Dtm_sim.Router.warm_all r;
  r

let extension_tests =
  Test.make_grouped ~name:"extensions"
    [
      Test.make ~name:"e12_ring_sched" (stage (fun () ->
          Dtm_sched.Ring_sched.schedule ~n:ring_n ring_inst));
      Test.make ~name:"e9_congestion_cap1" (stage (fun () ->
          Dtm_sim.Congestion.run ~router:star_router ~capacity:1 star_graph
            star_inst ~priority:star_priority));
      Test.make ~name:"e9_congestion_unbounded" (stage (fun () ->
          Dtm_sim.Congestion.run ~router:star_router star_graph star_inst
            ~priority:star_priority));
      Test.make ~name:"e11_optimal_7txn" (stage (fun () ->
          Dtm_sim.Optimal.makespan (Dtm_topology.Clique.metric 7) tiny_inst));
      Test.make ~name:"e10_nearest_first" (stage (fun () ->
          Dtm_sched.Baseline.nearest_first grid_metric grid_inst));
      Test.make ~name:"e14_online_greedy_cm" (stage (fun () ->
          let rng = rng_of 10 in
          let s =
            Dtm_online.Stream.uniform ~rng ~n:25 ~num_objects:8 ~k:2
              ~txns_per_node:3 ~mean_gap:3
          in
          let homes = Dtm_online.Stream.initial_homes ~rng s in
          Dtm_online.Runner.run
            ~policy:(Dtm_online.Policy.Timestamp { preemption = true })
            (Dtm_topology.Grid.metric ~rows:5 ~cols:5)
            s ~homes));
    ]

(* Open-system steady-state kernels (E16's inner loop): the
   continual-arrival engine pulling a seeded injection source.  The
   workload is deterministic, so even a single sample per quota gives a
   stable reading. *)
let steady_spec =
  {
    Dtm_workload.Injection.n = 32;
    num_objects = 128;
    k = 2;
    rate = 1.0;
    burst = 4;
    dist = Dtm_workload.Injection.Zipf_objects 1.0;
    seed = 7;
  }

let steady_metric = Dtm_topology.Clique.metric steady_spec.Dtm_workload.Injection.n
let steady_homes = Dtm_workload.Injection.homes steady_spec

let probe_spec =
  {
    steady_spec with
    Dtm_workload.Injection.n = 16;
    num_objects = 32;
    rate = 0.4;
    dist = Dtm_workload.Injection.Zipf_objects 1.1;
  }

let probe_metric = Dtm_topology.Clique.metric probe_spec.Dtm_workload.Injection.n
let probe_homes = Dtm_workload.Injection.homes probe_spec

let online_tests =
  Test.make_grouped ~name:"online"
    [
      (* 10^6 transactions end to end: the frontier-only engine must
         digest them in O(1) space and roughly a second. *)
      Test.make ~name:"steady_state_1m" (stage (fun () ->
          Dtm_online.Open_system.run
            ~policy:(Dtm_online.Policy.Timestamp { preemption = true })
            steady_metric
            (Dtm_workload.Injection.source ~limit:1_000_000 steady_spec)
            ~homes:steady_homes ~horizon:4_000_000));
      (* One short-horizon bisection probe, as E16 issues ~250 of. *)
      Test.make ~name:"stability_probe" (stage (fun () ->
          Dtm_online.Open_system.run
            ~policy:(Dtm_online.Policy.Window_greedy { window = 16; seed = 1 })
            ~divergence_cap:400 probe_metric
            (Dtm_workload.Injection.source probe_spec)
            ~homes:probe_homes ~horizon:1_000));
      (* The same 10^6-transaction workload through the sharded entry
         point: _s1 is the one-shard case of the same engine (no messages,
         no rounds), so it checks that entry point's overhead against
         steady_state_1m, and _s4 runs four shard cells on the domain
         pool.  _s4 / _s1 is the wall-clock
         scaling claim; on hosts with fewer cores than shards the
         comparison is informational (compare.exe annotates it). *)
      Test.make ~name:"steady_state_1m_s1" (stage (fun () ->
          Dtm_online.Sharded.run
            ~policy:(Dtm_online.Policy.Timestamp { preemption = true })
            ~shards:1 steady_metric
            (Dtm_workload.Injection.source_factory ~limit:1_000_000 steady_spec)
            ~homes:steady_homes ~horizon:4_000_000));
      Test.make ~name:"steady_state_1m_s4" (stage (fun () ->
          Dtm_online.Sharded.run
            ~policy:(Dtm_online.Policy.Timestamp { preemption = true })
            ~shards:4 steady_metric
            (Dtm_workload.Injection.source_factory ~limit:1_000_000 steady_spec)
            ~homes:steady_homes ~horizon:4_000_000));
    ]

(* Landmark oracle: build (L Dijkstras over CSR) plus a deterministic
   batch of exact queries on a 32x32 grid.  Building a fresh oracle per
   run keeps the per-domain query cache cold, so the goal-directed
   search cost stays visible instead of degenerating into cache hits. *)
let lm_graph = Dtm_topology.Grid.graph ~rows:32 ~cols:32
let lm_pairs =
  let rng = rng_of 11 in
  Array.init 1024 (fun _ ->
      (Dtm_util.Prng.int rng 1024, Dtm_util.Prng.int rng 1024))

(* Weighted small-world variant: random 1..100 edge weights on a
   power-law graph route every query through the bidi fallback's
   ALT-pruned path (uniform-weight graphs skip the pruning), so this
   kernel watches the cost the weighted tuning targets.  The oracle is
   built once — queries, not construction, are the measured object —
   and, as with [metric_landmark], the oracle is rebuilt per run so the
   per-domain query cache stays cold. *)
let lmw_n = 4096
let lmw_graph =
  let g0 =
    Dtm_topology.Power_law.graph
      { Dtm_topology.Power_law.n = lmw_n; attach = 3; seed = 42 }
  in
  let rng = rng_of 7 in
  let edges =
    List.map
      (fun { Dtm_graph.Graph.u; v; _ } ->
        (u, v, 1 + Dtm_util.Prng.int rng 100))
      (Dtm_graph.Graph.edges g0)
  in
  Dtm_graph.Graph.of_edges ~n:lmw_n edges

let lmw_pairs =
  let rng = rng_of 23 in
  Array.init 64 (fun _ ->
      (Dtm_util.Prng.int rng lmw_n, Dtm_util.Prng.int rng lmw_n))

(* Substrate and baselines. *)
let substrate_tests =
  Test.make_grouped ~name:"substrate"
    [
      Test.make ~name:"apsp_grid16" (stage (fun () -> Dtm_graph.Apsp.distances grid_graph));
      Test.make ~name:"dependency_build" (stage (fun () ->
          Dtm_core.Dependency.build grid_metric grid_inst));
      Test.make ~name:"lower_bound" (stage (fun () ->
          Dtm_core.Lower_bound.compute grid_metric grid_inst));
      Test.make ~name:"metric_landmark" (stage (fun () ->
          let m =
            Dtm_graph.Metric.of_landmark (Dtm_graph.Landmark.build lm_graph)
          in
          Array.fold_left
            (fun acc (u, v) -> acc + Dtm_graph.Metric.dist m u v)
            0 lm_pairs));
      Test.make ~name:"metric_landmark_weighted" (stage (fun () ->
          let lm = Dtm_graph.Landmark.build lmw_graph in
          Array.fold_left
            (fun acc (u, v) -> acc + Dtm_graph.Landmark.dist lm u v)
            0 lmw_pairs));
      Test.make ~name:"validator" (stage (fun () ->
          Dtm_core.Validator.is_feasible grid_metric grid_inst grid_sched));
      Test.make ~name:"replay_grid" (stage (fun () ->
          Dtm_sim.Replay.run ~router:grid_router grid_graph grid_inst grid_sched));
      Test.make ~name:"replay_grid_cold" (stage (fun () ->
          Dtm_sim.Replay.run grid_graph grid_inst grid_sched));
      Test.make ~name:"online_engine" (stage (fun () ->
          Dtm_sim.Engine.run grid_metric grid_inst));
      Test.make ~name:"baseline_sequential" (stage (fun () ->
          Dtm_sched.Baseline.sequential clique_metric clique_inst));
    ]

(* Verifier kernels: the DTM11x lints over a precomputed replay trace
   (the audit every experiment row now pays), and the small-scope model
   checker on the 7-transaction instance e11 already uses. *)
let grid_trace =
  (Dtm_sim.Replay.run ~router:grid_router grid_graph grid_inst grid_sched)
    .Dtm_sim.Replay.trace

let verify_tests =
  Test.make_grouped ~name:"verify"
    [
      Test.make ~name:"trace_lint" (stage (fun () ->
          Dtm_analysis.Trace_lint.check ~graph:grid_graph ~metric:grid_metric
            grid_inst ~commits:grid_sched grid_trace));
      Test.make ~name:"model_check_small" (stage (fun () ->
          Dtm_analysis.Model_check.optimum (Dtm_topology.Clique.metric 7)
            tiny_inst));
    ]

(* STM commit-path kernels: a fixed injected workload with zero
   busy-work, so the measurement is the commit protocol itself (open
   CAS, validation, status CAS, pool orchestration).  The 4-domain
   variant pays the pool spawn per run on purpose — that is the real
   cost of standing up the runtime. *)
let stm_spec =
  {
    Dtm_workload.Injection.n = 32;
    num_objects = 256;
    k = 2;
    rate = 2.0;
    burst = 1;
    dist = Dtm_workload.Injection.Uniform_objects;
    seed = 13;
  }

let stm_workload =
  Dtm_stm.Runtime.of_injection ~work_scale:0
    ~metric:(Dtm_topology.Clique.metric stm_spec.Dtm_workload.Injection.n)
    ~spec:stm_spec ~count:2048 ()

let stm_cm =
  Dtm_stm.Cm.of_policy (Dtm_online.Policy.Timestamp { preemption = true })

(* The first Calibrate.ns_per_unit call, made by the first Runtime.run,
   spins about 14 ms to time the busy-work loop: once-per-process
   set-up, paid here rather than inside the first timed run, where at
   the 50 ms CI quota it made the 1-domain kernel read ~45x its
   steady-state cost. *)
let () = ignore (Dtm_stm.Calibrate.ns_per_unit ())

let stm_tests =
  Test.make_grouped ~name:"stm"
    [
      Test.make ~name:"commit_throughput_1d" (stage (fun () ->
          Dtm_stm.Runtime.run ~cm:stm_cm ~domains:1
            ~num_objects:stm_spec.Dtm_workload.Injection.num_objects
            stm_workload));
      Test.make ~name:"commit_throughput_4d" (stage (fun () ->
          Dtm_stm.Runtime.run ~cm:stm_cm ~domains:4
            ~num_objects:stm_spec.Dtm_workload.Injection.num_objects
            stm_workload));
    ]

let all_tests =
  Test.make_grouped ~name:"dtm"
    [
      experiment_tests;
      ablation_tests;
      extension_tests;
      online_tests;
      substrate_tests;
      verify_tests;
      stm_tests;
    ]

let bench_limit = 2000

let benchmark ~quota_ms =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:bench_limit
      ~quota:(Time.second (quota_ms /. 1000.0))
      ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line
  with _ -> "unknown"

let json_path = "BENCH.json"

let write_json rows ~quota_ms =
  let open Dtm_analysis.Json in
  let results = List.map (fun (name, ms) -> (name, Float ms)) rows in
  let doc =
    Obj
      [
        ("schema", String "dtm-bench/1");
        ("git_rev", String (git_rev ()));
        ( "config",
          Obj
            [
              ("quota_ms", Float quota_ms);
              ("limit", Int bench_limit);
              (* Honest multicore reporting: the domain-parallel kernels
                 (stm 4d, online _s4) only measure scaling when the host
                 actually has the cores; compare.exe reads this to
                 annotate them on smaller machines. *)
              ("cores", Int (Domain.recommended_domain_count ()));
              ("estimator", String "monotonic-clock OLS, ms per run");
            ] );
        ("results", Obj results);
      ]
  in
  let oc = open_out json_path in
  output_string oc (to_string doc);
  output_string oc "\n";
  close_out oc

let usage = "usage: main.exe [--json] [--quota-ms N] [-j N]"

let () =
  let json = ref false and quota_ms = ref 500.0 in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--quota-ms" :: v :: rest -> (
      match float_of_string_opt v with
      | Some x when x > 0.0 ->
        quota_ms := x;
        parse rest
      | _ ->
        Printf.eprintf "invalid --quota-ms %s\n%s\n" v usage;
        exit 2)
    | ("-j" | "--jobs") :: v :: rest -> (
      match int_of_string_opt v with
      | Some j when j >= 1 ->
        Dtm_util.Pool.set_default_jobs j;
        parse rest
      | _ ->
        Printf.eprintf "invalid -j value %s\n%s\n" v usage;
        exit 2)
    | arg :: _ ->
      Printf.eprintf "unknown argument %s\n%s\n" arg usage;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let results = benchmark ~quota_ms:!quota_ms in
  let ms_of_ns ns = ns /. 1_000_000.0 in
  (* Extract the monotonic-clock OLS estimate per test and print a
     stable, diff-friendly table. *)
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | _ -> nan
        in
        (name, est) :: acc)
      clock []
    |> List.sort compare
  in
  Printf.printf "%-40s %14s\n" "benchmark" "time/run (ms)";
  Printf.printf "%s\n" (String.make 55 '-');
  List.iter
    (fun (name, ns) -> Printf.printf "%-40s %14.4f\n" name (ms_of_ns ns))
    rows;
  if !json then begin
    write_json (List.map (fun (n, ns) -> (n, ms_of_ns ns)) rows) ~quota_ms:!quota_ms;
    Printf.printf "\nwrote %s\n" json_path
  end
