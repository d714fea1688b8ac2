(* Property layer for the continual-arrival open-system engine:

     - seeded injection sources replay identically (and their homes are
       stable),
     - conservation holds at every step: injected = committed + queue,
     - a finite stream drains completely and the engine reports it
       bounded,
     - the committed prefix of any run is a legal DTM execution: its
       commit times replay through the metric-descent walk and pass
       every DTM11x trace lint, on all seven paper topologies,
     - a 10^6-transaction steady-state run holds only the active
       frontier (live-heap probe) and allocates O(1) per transaction
       (minor-words bound), mirroring the PR 5 warm-replay test. *)

module Topology = Dtm_topology.Topology
module Prng = Dtm_util.Prng
module Stream = Dtm_online.Stream
module Policy = Dtm_online.Policy
module Open_system = Dtm_online.Open_system
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

let spec_of rng =
  let range lo hi = Prng.int_in_range rng ~lo ~hi in
  let dist =
    match Prng.int rng 3 with
    | 0 -> Injection.Uniform_objects
    | 1 -> Injection.Zipf_objects (0.5 +. Prng.float rng 1.0)
    | _ -> Injection.Hot_objects (Prng.float rng 0.9)
  in
  {
    Injection.n = range 2 24;
    num_objects = range 2 32;
    k = 0 (* fixed below *);
    rate = 0.05 +. Prng.float rng 1.0;
    burst = range 1 6;
    dist;
    seed = Prng.int rng 1_000_000;
  }

let spec_of rng =
  let s = spec_of rng in
  let m = s.Injection.num_objects in
  { s with Injection.k = Prng.int_in_range rng ~lo:1 ~hi:(min 3 m) }

(* ------------------------------------------------------------------ *)
(* P1: injection replay determinism                                    *)
(* ------------------------------------------------------------------ *)

let prop_injection_replays =
  qtest "P1: equal specs produce identical streams and homes" seed_gen
    (fun seed ->
      let rng = Prng.create ~seed in
      let spec = spec_of rng in
      let take n src =
        List.init n (fun _ -> Stream.pull src)
        |> List.filter_map (fun t -> t)
        |> List.map (fun t -> (t.Stream.node, t.Stream.objects, t.Stream.arrival))
      in
      let a = take 500 (Injection.source spec) in
      let b = take 500 (Injection.source spec) in
      a = b
      && Injection.homes spec = Injection.homes spec
      && List.length a = 500)

(* ------------------------------------------------------------------ *)
(* P2: to_source ordering round-trips                                  *)
(* ------------------------------------------------------------------ *)

let prop_to_source_ordered =
  qtest "P2: Stream.to_source yields (arrival, node)-sorted txns" seed_gen
    (fun seed ->
      let rng = Prng.create ~seed in
      let n = Prng.int_in_range rng ~lo:2 ~hi:12 in
      let s =
        Stream.uniform ~rng ~n ~num_objects:6 ~k:2
          ~txns_per_node:(Prng.int rng 5)
          ~mean_gap:2
      in
      let src = Stream.to_source s in
      let rec drain acc =
        match Stream.pull src with
        | None -> List.rev acc
        | Some t -> drain (t :: acc)
      in
      let pulled = drain [] in
      List.length pulled = Stream.total s
      && List.for_all2
           (fun a b ->
             a.Stream.arrival = b.Stream.arrival && a.Stream.node = b.Stream.node)
           pulled (Stream.txns s))

(* ------------------------------------------------------------------ *)
(* P3: conservation + drain on finite injection workloads              *)
(* ------------------------------------------------------------------ *)

let prop_conservation =
  qtest "P3: injected = committed + queue at every step; finite drains"
    seed_gen (fun seed ->
      let rng = Prng.create ~seed in
      let spec = spec_of rng in
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
        Open_system.run ~policy ~patience:10 ~probe metric
          (Injection.source ~limit spec)
          ~homes:(Injection.homes spec) ~horizon:100_000
      in
      !violations = 0
      && !steps > 0
      && r.Open_system.injected = limit
      && r.Open_system.committed = limit
      && r.Open_system.final_queue = 0
      && r.Open_system.verdict = Open_system.Bounded
      && r.Open_system.injected
         = r.Open_system.committed + r.Open_system.final_queue)

(* ------------------------------------------------------------------ *)
(* P4: committed prefixes replay and pass the DTM11x lints             *)
(* ------------------------------------------------------------------ *)

(* At most one transaction per node, so the committed prefix of a run
   maps directly onto a core [Instance]. *)
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

let lint_prefix ~seed:_ rng topo =
  let policy = draw_policy rng in
  let stream = one_shot_stream rng topo in
  let metric = Topology.metric topo in
  let homes = Stream.initial_homes ~rng stream in
  let horizon = Prng.int_in_range rng ~lo:10 ~hi:2_000 in
  let commits = ref [] in
  let on_commit ~id:_ ~node ~step = commits := (node, step) :: !commits in
  let _ =
    Open_system.run ~policy ~patience:10 ~on_commit metric
      (Stream.to_source stream) ~homes ~horizon
  in
  match !commits with
  | [] -> true (* nothing committed within the horizon: empty prefix *)
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

let prop_lint_prefixes =
  qtest ~count:20
    "P4: committed prefixes pass DTM11x lints on all seven topologies"
    seed_gen (fun seed ->
      let rng = Prng.create ~seed in
      List.for_all (fun topo -> lint_prefix ~seed rng topo)
        (seven_topologies rng))

(* ------------------------------------------------------------------ *)
(* Frontier-boundedness of the 10^6-transaction steady-state run       *)
(* ------------------------------------------------------------------ *)

let test_steady_state_allocation () =
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
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let live_peak = ref live0 in
  let probe ~step ~injected:_ ~committed:_ ~queue:_ =
    (* A handful of full majors along the way: the live heap never grows
       past the frontier, so materializing the stream (~20M words for
       10^6 transactions) would trip the bound at the first probe. *)
    if step mod 250_000 = 0 then begin
      Gc.full_major ();
      let lw = (Gc.stat ()).Gc.live_words in
      if lw > !live_peak then live_peak := lw
    end
  in
  let words_before = Gc.minor_words () in
  let r =
    Open_system.run
      ~policy:(Policy.Timestamp { preemption = true })
      ~probe metric
      (Injection.source ~limit:txns spec)
      ~homes ~horizon:(4 * txns)
  in
  let words = Gc.minor_words () -. words_before in
  Alcotest.(check int) "all transactions committed" txns r.Open_system.committed;
  Alcotest.(check bool)
    "verdict bounded" true
    (r.Open_system.verdict = Open_system.Bounded);
  let live_growth = !live_peak - live0 in
  Alcotest.(check bool)
    (Printf.sprintf "live heap stays at the frontier (grew %d words)"
       live_growth)
    true
    (live_growth < 2_000_000);
  (* ~240 words/txn today (generator draws, waiter conses, calendar
     entries, per-step sorts); the bound has headroom for constants but
     trips on anything super-linear in the history. *)
  let per_txn = words /. float_of_int txns in
  Alcotest.(check bool)
    (Printf.sprintf "allocation is O(1) per transaction (%.1f words/txn)"
       per_txn)
    true (per_txn < 500.0)

let () =
  Alcotest.run "dtm_stability"
    [
      ( "injection",
        [ prop_injection_replays; prop_to_source_ordered ] );
      ("conservation", [ prop_conservation ]);
      ("trace-lints", [ prop_lint_prefixes ]);
      ( "allocation",
        [
          Alcotest.test_case "steady-state frontier" `Slow
            test_steady_state_allocation;
        ] );
    ]
