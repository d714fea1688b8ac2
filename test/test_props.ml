(* The property-based test layer (QCheck): random instances on all
   seven paper topologies, checking the end-to-end contracts the
   theorems promise —

     - the auto scheduler's output is validator-feasible,
     - its makespan stays within the Certificate theorem bound,
     - the certified lower bound never exceeds a feasible makespan,
     - Engine.compact never lengthens a schedule (and stays feasible),
     - every generated topology metric passes Metric_lint,
     - the parallel measurement stack (Dtm_util.Pool) is byte-identical
       to sequential at any -j,
     - the branch-and-bound walk oracle equals the transcribed Held-Karp
       reference, and the lower-bound engines are jobs-invariant.

   Every property draws one integer seed and derives size parameters
   per topology from it with Prng, so each QCheck case exercises all
   seven families deterministically. *)

module Topology = Dtm_topology.Topology
module Schedule = Dtm_core.Schedule
module Validator = Dtm_core.Validator
module Certificate = Dtm_analysis.Certificate
module Prng = Dtm_util.Prng
module Pool = Dtm_util.Pool

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let seed_gen = QCheck.int_range 0 1_000_000

(* One topology per family, sizes drawn from the seed. *)
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

let instance_on rng topo =
  let n = Topology.n topo in
  let w = 1 + Prng.int rng (max 1 (n / 2)) in
  let k = 1 + Prng.int rng (min 3 w) in
  Dtm_workload.Uniform.instance ~rng ~n ~num_objects:w ~k ()

let for_all_topologies seed check =
  let rng = Prng.create ~seed in
  List.for_all
    (fun topo ->
      let inst = instance_on rng topo in
      check ~seed topo inst)
    (seven_topologies rng)

(* P1: the paper scheduler always emits a feasible schedule. *)
let prop_auto_feasible =
  qtest "auto schedule is validator-feasible on all 7 topologies" seed_gen
    (fun seed ->
      for_all_topologies seed (fun ~seed topo inst ->
          let sched = Dtm_sched.Auto.schedule ~seed topo inst in
          Validator.is_feasible (Topology.metric topo) inst sched))

(* P2: the makespan stays inside the topology's theorem bound. *)
let prop_auto_within_certificate =
  qtest "auto schedule within its Certificate theorem bound" seed_gen
    (fun seed ->
      for_all_topologies seed (fun ~seed topo inst ->
          let cert, diags = Certificate.check_auto ~seed topo inst in
          diags = []
          &&
          match cert.Certificate.bound with
          | Some b -> cert.Certificate.makespan <= b
          | None -> false))

(* P3: the certified lower bound is sound — no feasible schedule beats it. *)
let prop_lower_bound_sound =
  qtest "certified lower bound <= any feasible makespan" seed_gen
    (fun seed ->
      for_all_topologies seed (fun ~seed topo inst ->
          let metric = Topology.metric topo in
          let lb = Dtm_core.Lower_bound.certified metric inst in
          let sched = Dtm_sched.Auto.schedule ~seed topo inst in
          let greedy = Dtm_core.Greedy.schedule metric inst in
          lb <= Schedule.makespan sched && lb <= Schedule.makespan greedy))

(* P4: compaction never lengthens and preserves feasibility. *)
let prop_compact_never_lengthens =
  qtest "Engine.compact never lengthens a schedule" seed_gen
    (fun seed ->
      for_all_topologies seed (fun ~seed:_ topo inst ->
          let metric = Topology.metric topo in
          let sched = Dtm_core.Greedy.schedule metric inst in
          let compacted = Dtm_sim.Engine.compact metric inst sched in
          Schedule.makespan compacted <= Schedule.makespan sched
          && Validator.is_feasible metric inst compacted))

(* P5: every generated topology metric is a clean metric space. *)
let prop_metrics_pass_lint =
  qtest "topology metrics always pass Metric_lint" seed_gen
    (fun seed ->
      let rng = Prng.create ~seed in
      List.for_all
        (fun topo -> Dtm_analysis.Metric_lint.check (Topology.metric topo) = [])
        (seven_topologies rng))

(* P6: the parallel measurement stack is deterministic — mean_ratio is
   bit-identical at -j 1 and -j 4 (ordered merge, per-seed Prng). *)
let prop_measurements_parallel_deterministic =
  qtest ~count:15 "Runner.mean_ratio identical at jobs 1 and 4" seed_gen
    (fun seed ->
      let rng = Prng.create ~seed in
      let topo =
        List.nth (seven_topologies rng) (seed mod 7)
      in
      let n = Topology.n topo in
      let w = max 2 (n / 3) in
      let measure () =
        Dtm_expt.Runner.mean_ratio
          ~seeds:[ seed; seed + 1; seed + 2; seed + 3 ]
          ~gen:(fun rng ->
            Dtm_workload.Uniform.instance ~rng ~n ~num_objects:w ~k:2 ())
          ~metric:(Topology.metric topo)
          ~sched:(fun inst -> Dtm_core.Greedy.schedule (Topology.metric topo) inst)
          ()
      in
      Pool.set_default_jobs 1;
      let sequential = measure () in
      Pool.set_default_jobs 4;
      let parallel = measure () in
      Pool.set_default_jobs 2;
      sequential = parallel)

(* P7: Runner.sweep merges in seed order — it equals the sequential map. *)
let prop_sweep_ordered =
  qtest ~count:15 "Runner.sweep = sequential per-seed measurement" seed_gen
    (fun seed ->
      let rng = Prng.create ~seed in
      let topo = List.nth (seven_topologies rng) ((seed + 3) mod 7) in
      let metric = Topology.metric topo in
      let n = Topology.n topo in
      let gen rng =
        Dtm_workload.Uniform.instance ~rng ~n ~num_objects:(max 2 (n / 4)) ~k:2 ()
      in
      let sched inst = Dtm_core.Greedy.schedule metric inst in
      let seeds = List.init 5 (fun i -> seed + i) in
      let swept = Dtm_expt.Runner.sweep ~seeds ~gen ~metric ~sched () in
      let sequential =
        List.map
          (fun s ->
            let rng = Prng.create ~seed:s in
            let inst = gen rng in
            Dtm_expt.Runner.measure metric inst (sched inst))
          seeds
      in
      swept = sequential)

(* P8: the flat (materialized) metric backend is observationally equal
   to the closed-form oracle on all seven paper topologies — dist on
   every pair, diameter, and max_dist_among on a random subset. *)
let prop_flat_matches_oracle =
  qtest "flat backend = closure oracle on all 7 topologies" seed_gen
    (fun seed ->
      let rng = Prng.create ~seed in
      let range lo hi = Prng.int_in_range rng ~lo ~hi in
      let oracles =
        [
          Dtm_topology.Clique.oracle (range 4 24);
          Dtm_topology.Line.oracle (range 4 32);
          Dtm_topology.Grid.oracle ~rows:(range 2 6) ~cols:(range 2 6);
          Dtm_topology.Torus.oracle ~rows:(range 2 6) ~cols:(range 2 6);
          Dtm_topology.Hypercube.oracle ~dim:(range 2 4);
          Dtm_topology.Star.oracle
            { Dtm_topology.Star.rays = range 2 5; ray_len = range 1 6 };
          Dtm_topology.Cluster.oracle
            {
              Dtm_topology.Cluster.clusters = range 2 4;
              size = range 2 5;
              bridge_weight = range 2 8;
            };
        ]
      in
      let module Metric = Dtm_graph.Metric in
      List.for_all
        (fun oracle ->
          let flat = Metric.materialize ~threshold:1 oracle in
          let n = Metric.size oracle in
          let dists_agree = ref (Metric.is_flat flat) in
          for u = 0 to n - 1 do
            for v = 0 to n - 1 do
              if Metric.dist flat u v <> Metric.dist oracle u v then
                dists_agree := false
            done
          done;
          let k = 1 + Prng.int rng n in
          let nodes = Array.to_list (Prng.sample_subset rng ~k ~n) in
          !dists_agree
          && Metric.diameter flat = Metric.diameter oracle
          && Metric.max_dist_among flat nodes = Metric.max_dist_among oracle nodes)
        oracles)

(* Reference (pre-optimization) conflict-graph and coloring kernels,
   transcribed from the seed implementations: boxed-tuple hashing for
   dedup, list-based interval scans for the color searches.  P9/P10
   pin the rewritten kernels to these. *)
module Seed_ref = struct
  module Instance = Dtm_core.Instance
  module Dependency = Dtm_core.Dependency

  (* conflicts, hmax, num_conflicts of the seed Dependency.build *)
  let build metric inst =
    let n = Instance.n inst in
    let pair_seen = Hashtbl.create 256 in
    let adj = Array.make (max 1 n) [] in
    let hmax = ref 0 and num = ref 0 in
    for o = 0 to Instance.num_objects inst - 1 do
      let reqs = Instance.requesters inst o in
      let len = Array.length reqs in
      for i = 0 to len - 1 do
        for j = i + 1 to len - 1 do
          let u = reqs.(i) and v = reqs.(j) in
          if not (Hashtbl.mem pair_seen (u, v)) then begin
            Hashtbl.replace pair_seen (u, v) ();
            let w = Dtm_graph.Metric.dist metric u v in
            adj.(u) <- (v, w) :: adj.(u);
            adj.(v) <- (u, w) :: adj.(v);
            if w > !hmax then hmax := w;
            incr num
          end
        done
      done
    done;
    (Array.map Array.of_list adj, !hmax, !num)

  let smallest_compact constraints =
    let forbidden =
      List.filter_map
        (fun (cv, w) ->
          let lo = max 1 (cv - w + 1) and hi = cv + w - 1 in
          if lo <= hi then Some (lo, hi) else None)
        constraints
    in
    let sorted = List.sort compare forbidden in
    let rec scan c = function
      | [] -> c
      | (lo, hi) :: rest -> if c < lo then c else scan (max c (hi + 1)) rest
    in
    scan 1 sorted

  let smallest_slotted hmax constraints =
    let step = max 1 hmax in
    let ok c = List.for_all (fun (cv, w) -> abs (c - cv) >= w) constraints in
    let rec go j =
      let c = (j * step) + 1 in
      if ok c then c else go (j + 1)
    in
    go 0

  let order_nodes order dep inst =
    let nodes = Array.copy (Instance.txn_nodes inst) in
    (match order with
    | Dtm_core.Coloring.Natural -> ()
    | Dtm_core.Coloring.Desc_degree ->
      let deg v = Array.length (Dependency.conflicts dep v) in
      let lst = Array.to_list nodes in
      let sorted = List.stable_sort (fun a b -> compare (deg b) (deg a)) lst in
      List.iteri (fun i v -> nodes.(i) <- v) sorted
    | Dtm_core.Coloring.Random_order seed ->
      let rng = Prng.create ~seed in
      Prng.shuffle rng nodes);
    nodes

  (* Seed Coloring.greedy on top of the production dependency graph
     (adjacency order differs from the seed's, but both searches are
     insensitive to it). *)
  let greedy ~strategy ~order dep inst =
    let n = Instance.n inst in
    let colors = Array.make n 0 in
    let nodes = order_nodes order dep inst in
    let hmax = Dependency.hmax dep in
    Array.iter
      (fun v ->
        let constraints =
          Array.to_list (Dependency.conflicts dep v)
          |> List.filter_map (fun (u, w) ->
                 if colors.(u) <> 0 then Some (colors.(u), w) else None)
        in
        let c =
          match strategy with
          | Dtm_core.Coloring.Compact -> smallest_compact constraints
          | Dtm_core.Coloring.Slotted -> smallest_slotted hmax constraints
        in
        colors.(v) <- c)
      nodes;
    (colors, Array.fold_left max 0 colors)
end

(* P9: the int-keyed radix dedup in Dependency.build matches the seed's
   tuple-hashing build: same edge set (as sorted adjacency), hmax and
   conflict count on random instances over all seven topologies. *)
let prop_dependency_matches_seed =
  qtest "Dependency.build = seed reference on all 7 topologies" seed_gen
    (fun seed ->
      for_all_topologies seed (fun ~seed:_ topo inst ->
          let metric = Topology.metric topo in
          let dep = Dtm_core.Dependency.build metric inst in
          let ref_adj, ref_hmax, ref_num = Seed_ref.build metric inst in
          let sorted a =
            let l = Array.to_list a in
            List.sort compare l
          in
          Dtm_core.Dependency.hmax dep = ref_hmax
          && Dtm_core.Dependency.num_conflicts dep = ref_num
          && List.for_all
               (fun v ->
                 sorted (Dtm_core.Dependency.conflicts dep v)
                 = sorted ref_adj.(v))
               (List.init (Dtm_core.Instance.n inst) Fun.id)))

(* P10: the scratch-array color searches match the seed's list-based
   ones — identical colorings for every strategy/order combination. *)
let prop_coloring_matches_seed =
  qtest "Coloring.greedy = seed reference on all 7 topologies" seed_gen
    (fun seed ->
      for_all_topologies seed (fun ~seed:_ topo inst ->
          let metric = Topology.metric topo in
          let dep = Dtm_core.Dependency.build metric inst in
          List.for_all
            (fun strategy ->
              List.for_all
                (fun order ->
                  let c = Dtm_core.Coloring.greedy ~strategy ~order dep inst in
                  let ref_colors, ref_num =
                    Seed_ref.greedy ~strategy ~order dep inst
                  in
                  c.Dtm_core.Coloring.colors = ref_colors
                  && c.Dtm_core.Coloring.num_colors = ref_num)
                [
                  Dtm_core.Coloring.Natural;
                  Dtm_core.Coloring.Desc_degree;
                  Dtm_core.Coloring.Random_order (seed land 0xffff);
                ])
            [ Dtm_core.Coloring.Compact; Dtm_core.Coloring.Slotted ]))

(* P11: the branch-and-bound walk oracle equals the transcribed
   Held-Karp reference on random terminal subsets of all seven
   topologies, with and without an anchored start — and the cheap
   bounds bracket it. *)
let prop_walk_oracle_exact =
  qtest "Tsp branch-and-bound = Held-Karp reference on all 7 topologies"
    seed_gen (fun seed ->
      let rng = Prng.create ~seed in
      let module Metric = Dtm_graph.Metric in
      let module Tsp = Dtm_graph.Tsp in
      List.for_all
        (fun topo ->
          let m = Topology.metric topo in
          let n = Metric.size m in
          let k = Prng.int_in_range rng ~lo:2 ~hi:(min 10 n) in
          let terms = Array.to_list (Prng.sample_subset rng ~k ~n) in
          let start =
            if Prng.int rng 2 = 0 then None else Some (Prng.int rng n)
          in
          let exact = Tsp.exact_path_length m ?start terms in
          let reference = Tsp.held_karp_path_length m ?start terms in
          let lower = Tsp.lower_bound m ?start terms in
          let upper = Tsp.upper_bound m ?start terms in
          exact = reference && lower <= exact && exact <= upper)
        (seven_topologies rng))

(* P12: the parallel per-object fan-out of the lower-bound engines is
   structurally identical at jobs 1 (sequential path) and jobs 4
   (dedicated pool), on an instance large enough to clear the
   parallelism floors. *)
let prop_lower_bound_parallel_deterministic =
  qtest ~count:10 "Lower_bound/Rw_lower_bound identical at jobs 1 and 4"
    seed_gen (fun seed ->
      let rng = Prng.create ~seed in
      let topo = Topology.Grid { rows = 6; cols = 7 } in
      let metric = Topology.metric topo in
      let inst =
        Dtm_workload.Uniform.instance ~rng ~n:(Topology.n topo)
          ~num_objects:8 ~k:3 ()
      in
      let seq = Dtm_core.Lower_bound.compute ~jobs:1 metric inst in
      let par = Dtm_core.Lower_bound.compute ~jobs:4 metric inst in
      let rw = Dtm_core.Rw_instance.all_write inst in
      let rw_seq = Dtm_core.Rw_lower_bound.compute ~jobs:1 metric rw in
      let rw_par = Dtm_core.Rw_lower_bound.compute ~jobs:4 metric rw in
      seq = par && rw_seq = rw_par)

(* P13: replay through a caller-owned router — warm, reused, or frozen —
   is observationally identical to a fresh-router replay on all seven
   topologies: same result record and byte-identical trace events. *)
let prop_replay_shared_router_identical =
  qtest ~count:20 "Replay.run ?router = fresh router on all 7 topologies"
    seed_gen (fun seed ->
      for_all_topologies seed (fun ~seed topo inst ->
          let g = Topology.graph topo in
          let sched = Dtm_sched.Auto.schedule ~seed topo inst in
          let fresh = Dtm_sim.Replay.run g inst sched in
          let router = Dtm_sim.Router.create g in
          let warm1 = Dtm_sim.Replay.run ~router g inst sched in
          let warm2 = Dtm_sim.Replay.run ~router g inst sched in
          let frozen =
            Dtm_sim.Replay.run ~router:(Dtm_sim.Router.freeze router) g inst
              sched
          in
          let same (a : Dtm_sim.Replay.result) (b : Dtm_sim.Replay.result) =
            a.Dtm_sim.Replay.ok = b.Dtm_sim.Replay.ok
            && a.Dtm_sim.Replay.errors = b.Dtm_sim.Replay.errors
            && a.Dtm_sim.Replay.makespan = b.Dtm_sim.Replay.makespan
            && a.Dtm_sim.Replay.messages = b.Dtm_sim.Replay.messages
            && a.Dtm_sim.Replay.hops = b.Dtm_sim.Replay.hops
            && a.Dtm_sim.Replay.total_wait = b.Dtm_sim.Replay.total_wait
            && Dtm_sim.Trace.events a.Dtm_sim.Replay.trace
               = Dtm_sim.Trace.events b.Dtm_sim.Replay.trace
          in
          same fresh warm1 && same fresh warm2 && same fresh frozen))

(* P14: a frozen router shared across Pool domains keeps replay
   deterministic — the merged per-seed outputs are identical at jobs 1
   and jobs 4. *)
let prop_replay_pool_deterministic =
  qtest ~count:10 "Pool-parallel replay with frozen router, jobs 1 = jobs 4"
    seed_gen (fun seed ->
      let rng = Prng.create ~seed in
      let topo = List.nth (seven_topologies rng) (seed mod 7) in
      let g = Topology.graph topo in
      let router = Dtm_sim.Router.create g in
      Dtm_sim.Router.warm_all router;
      let router = Dtm_sim.Router.freeze router in
      let replay_digest s =
        let rng = Prng.create ~seed:s in
        let inst = instance_on rng topo in
        let sched = Dtm_sched.Auto.schedule ~seed:s topo inst in
        let r = Dtm_sim.Replay.run ~router g inst sched in
        ( r.Dtm_sim.Replay.ok,
          r.Dtm_sim.Replay.messages,
          r.Dtm_sim.Replay.hops,
          r.Dtm_sim.Replay.total_wait,
          Dtm_sim.Trace.events r.Dtm_sim.Replay.trace )
      in
      let seeds = List.init 8 (fun i -> seed + i) in
      Pool.set_default_jobs 1;
      let seq = Pool.run replay_digest seeds in
      Pool.set_default_jobs 4;
      let par = Pool.run replay_digest seeds in
      Pool.set_default_jobs 2;
      seq = par)

(* Reference (pre-optimization) nearest-neighbour tour, transcribed from
   the seed Baseline.nearest_first: full O(m^2) visited scan with strict
   improvement (ties -> smallest index). *)
let seed_ref_nearest_tour metric nodes =
  let m = Array.length nodes in
  let visited = Array.make m false in
  let order = Array.make m nodes.(0) in
  visited.(0) <- true;
  for i = 1 to m - 1 do
    let cur = order.(i - 1) in
    let pick = ref (-1) and best = ref max_int in
    for j = 0 to m - 1 do
      if not visited.(j) then begin
        let d = Dtm_graph.Metric.dist metric cur nodes.(j) in
        if d < !best then begin
          best := d;
          pick := j
        end
      end
    done;
    visited.(!pick) <- true;
    order.(i) <- nodes.(!pick)
  done;
  order

(* P15: the bucketed expanding-ring scan inside Baseline.nearest_first
   produces exactly the seed tour — checked through the resulting
   schedule, which is a function of the visit order alone. *)
let prop_nearest_first_matches_seed =
  qtest "Baseline.nearest_first = seed O(m^2) reference on all 7 topologies"
    seed_gen (fun seed ->
      for_all_topologies seed (fun ~seed:_ topo inst ->
          let metric = Topology.metric topo in
          let nodes = Dtm_core.Instance.txn_nodes inst in
          if Array.length nodes = 0 then true
          else begin
            let order = seed_ref_nearest_tour metric nodes in
            let composer = Dtm_sched.Composer.create metric inst in
            Array.iter
              (fun v -> Dtm_sched.Composer.run_greedy_group composer [ v ])
              order;
            let reference = Dtm_sched.Composer.schedule composer in
            let fast = Dtm_sched.Baseline.nearest_first metric inst in
            List.for_all
              (fun v -> Schedule.time reference v = Schedule.time fast v)
              (Schedule.scheduled_nodes reference)
            && Schedule.makespan reference = Schedule.makespan fast
          end))

(* P16: every execution trace the simulators produce — Dijkstra replay,
   metric-descent walk, bounded-capacity congestion — passes the
   DTM11x trace lints on all seven topologies, including the per-edge
   capacity audit at the capacity the congestion run was given. *)
let prop_traces_pass_lints =
  qtest ~count:20 "replay/walker/congestion traces pass the DTM11x lints"
    seed_gen (fun seed ->
      for_all_topologies seed (fun ~seed topo inst ->
          let metric = Topology.metric topo in
          let g = Topology.graph topo in
          let sched = Dtm_sched.Auto.schedule ~seed topo inst in
          let clean ?capacity ~commits trace =
            Dtm_analysis.Trace_lint.check ?capacity ~graph:g ~metric inst
              ~commits trace
            = []
          in
          let capacity = 1 + (seed mod 3) in
          let r = Dtm_sim.Replay.run g inst sched in
          let w = Dtm_sim.Replay.walk g metric inst sched in
          let c = Dtm_sim.Congestion.run ~capacity g inst ~priority:sched in
          r.Dtm_sim.Replay.ok && w.Dtm_sim.Replay.ok
          && clean ~commits:sched r.Dtm_sim.Replay.trace
          && clean ~commits:sched w.Dtm_sim.Replay.trace
          && clean ~capacity ~commits:c.Dtm_sim.Congestion.commit_times
               c.Dtm_sim.Congestion.trace))

(* P17: the model checker's reachable-state search and the permutation
   search in Optimal.exhaustive find the same optimum on random small
   instances (<= 7 transactions) of all seven topologies — 30 cases x 7
   families = 210 cross-validations per run. *)
let small_instance_on rng topo =
  let n = Topology.n topo in
  let t = 2 + Prng.int rng (min 6 (n - 1)) in
  let nodes = Array.init n (fun i -> i) in
  for i = 0 to t - 1 do
    let j = i + Prng.int rng (n - i) in
    let tmp = nodes.(i) in
    nodes.(i) <- nodes.(j);
    nodes.(j) <- tmp
  done;
  let w = 1 + Prng.int rng 3 in
  let home = Array.init w (fun _ -> Prng.int rng n) in
  let txns =
    List.init t (fun i ->
        let k = 1 + Prng.int rng w in
        let objs = Array.init w (fun o -> o) in
        for x = 0 to k - 1 do
          let j = x + Prng.int rng (w - x) in
          let tmp = objs.(x) in
          objs.(x) <- objs.(j);
          objs.(j) <- tmp
        done;
        (nodes.(i), Array.to_list (Array.sub objs 0 k)))
  in
  Dtm_core.Instance.create ~n ~num_objects:w ~home ~txns

let prop_model_check_matches_exhaustive =
  qtest "Model_check.optimum = Optimal.exhaustive on all 7 topologies"
    seed_gen (fun seed ->
      let rng = Prng.create ~seed in
      List.for_all
        (fun topo ->
          let inst = small_instance_on rng topo in
          let metric = Topology.metric topo in
          Dtm_analysis.Model_check.optimum metric inst
          = Dtm_sim.Optimal.makespan metric inst)
        (seven_topologies rng))

(* P18: the composed verifier is deterministic under the pool — the
   rendered report and every outcome number are identical at -j 1 and
   -j 4 (the CLI-level twin lives in test_determinism). *)
let prop_verify_parallel_deterministic =
  qtest ~count:5 "Verify.run identical at jobs 1 and 4" seed_gen (fun seed ->
      let rng = Prng.create ~seed in
      let topo = List.nth (seven_topologies rng) (seed mod 7) in
      let inst = instance_on rng topo in
      let sched = Dtm_sched.Auto.schedule ~seed topo inst in
      let snap () =
        let v = Dtm_analysis.Verify.run topo inst sched in
        ( Dtm_analysis.Report.render v.Dtm_analysis.Verify.report,
          v.Dtm_analysis.Verify.makespan,
          v.Dtm_analysis.Verify.lower,
          v.Dtm_analysis.Verify.replay_events,
          v.Dtm_analysis.Verify.congestion_makespan,
          v.Dtm_analysis.Verify.congestion_events,
          v.Dtm_analysis.Verify.optimum )
      in
      Pool.set_default_jobs 1;
      let sequential = snap () in
      Pool.set_default_jobs 4;
      let parallel = snap () in
      Pool.set_default_jobs 2;
      sequential = parallel)

let () =
  Alcotest.run "dtm_props"
    [
      ( "scheduler",
        [ prop_auto_feasible; prop_auto_within_certificate; prop_lower_bound_sound ] );
      ("compaction", [ prop_compact_never_lengthens ]);
      ("lints", [ prop_metrics_pass_lint ]);
      ( "determinism",
        [
          prop_measurements_parallel_deterministic;
          prop_sweep_ordered;
          prop_lower_bound_parallel_deterministic;
          prop_replay_pool_deterministic;
          prop_verify_parallel_deterministic;
        ] );
      ( "verifier",
        [ prop_traces_pass_lints; prop_model_check_matches_exhaustive ] );
      ( "kernels",
        [
          prop_flat_matches_oracle;
          prop_dependency_matches_seed;
          prop_coloring_matches_seed;
          prop_walk_oracle_exact;
          prop_replay_shared_router_identical;
          prop_nearest_first_matches_seed;
        ] );
    ]
