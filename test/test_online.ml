(* Tests for the online executor (Section 9's open problem #1): streams,
   policies, deadlock recovery, and the preemptive greedy contention
   manager. *)

open Dtm_online
module Prng = Dtm_util.Prng

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let line5 = Dtm_topology.Line.metric 5

let all_policies =
  [
    ("timestamp", Policy.Timestamp { preemption = false });
    ("greedy-cm", Policy.Timestamp { preemption = true });
    ("nearest", Policy.Nearest);
    ("random", Policy.Random_grant 7);
    ("window-greedy", Policy.Window_greedy { window = 16; seed = 1 });
  ]

(* ------------------------------------------------------------------ *)
(* Stream                                                             *)
(* ------------------------------------------------------------------ *)

let test_stream_basics () =
  let s =
    Stream.create ~n:3 ~num_objects:2
      [
        { Stream.node = 0; objects = [ 0 ]; arrival = 1 };
        { Stream.node = 0; objects = [ 1 ]; arrival = 4 };
        { Stream.node = 2; objects = [ 0; 1 ]; arrival = 2 };
      ]
  in
  Alcotest.(check int) "total" 3 (Stream.total s);
  Alcotest.(check int) "queue len" 2 (List.length (Stream.queue_at s 0));
  let all = Stream.txns s in
  Alcotest.(check int) "sorted first arrival" 1 (List.hd all).Stream.arrival

let test_stream_rejects () =
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect "Stream.create: arrival < 1" (fun () ->
      ignore
        (Stream.create ~n:2 ~num_objects:1
           [ { Stream.node = 0; objects = [ 0 ]; arrival = 0 } ]));
  expect "Stream.create: arrivals not sorted per node" (fun () ->
      ignore
        (Stream.create ~n:2 ~num_objects:1
           [
             { Stream.node = 0; objects = [ 0 ]; arrival = 5 };
             { Stream.node = 0; objects = [ 0 ]; arrival = 2 };
           ]));
  expect "Stream.create: object out of range" (fun () ->
      ignore
        (Stream.create ~n:2 ~num_objects:1
           [ { Stream.node = 0; objects = [ 3 ]; arrival = 1 } ]))

let test_stream_uniform_shape () =
  let rng = Prng.create ~seed:1 in
  let s = Stream.uniform ~rng ~n:6 ~num_objects:4 ~k:2 ~txns_per_node:3 ~mean_gap:2 in
  Alcotest.(check int) "total" 18 (Stream.total s);
  List.iter
    (fun t -> Alcotest.(check int) "k objects" 2 (List.length t.Stream.objects))
    (Stream.txns s)

let test_stream_homes () =
  let rng = Prng.create ~seed:2 in
  let s = Stream.uniform ~rng ~n:6 ~num_objects:4 ~k:2 ~txns_per_node:2 ~mean_gap:1 in
  let homes = Stream.initial_homes ~rng s in
  Alcotest.(check int) "one home per object" 4 (Array.length homes);
  Array.iter (fun h -> Alcotest.(check bool) "in range" true (h >= 0 && h < 6)) homes

(* ------------------------------------------------------------------ *)
(* Runner                                                             *)
(* ------------------------------------------------------------------ *)

let test_single_local_txn () =
  let s =
    Stream.create ~n:5 ~num_objects:1
      [ { Stream.node = 2; objects = [ 0 ]; arrival = 1 } ]
  in
  let r = Runner.run line5 s ~homes:[| 2 |] in
  Alcotest.(check int) "completed" 1 r.Runner.completed;
  (* Issue at 1, local grant delivers at 2, commit at 2. *)
  Alcotest.(check int) "makespan" 2 r.Runner.makespan;
  Alcotest.(check int) "no travel" 0 r.Runner.total_travel

let test_sequential_per_node () =
  (* Two txns at one node over one object: strictly serialized. *)
  let s =
    Stream.create ~n:5 ~num_objects:1
      [
        { Stream.node = 1; objects = [ 0 ]; arrival = 1 };
        { Stream.node = 1; objects = [ 0 ]; arrival = 1 };
      ]
  in
  let r = Runner.run line5 s ~homes:[| 1 |] in
  Alcotest.(check int) "completed" 2 r.Runner.completed;
  Alcotest.(check bool) "serialized" true (r.Runner.makespan >= 4)

let test_all_policies_complete () =
  List.iter
    (fun (name, policy) ->
      let rng = Prng.create ~seed:11 in
      let s =
        Stream.uniform ~rng ~n:10 ~num_objects:5 ~k:2 ~txns_per_node:4 ~mean_gap:3
      in
      let homes = Stream.initial_homes ~rng s in
      let metric = Dtm_topology.Ring.metric 10 in
      let r = Runner.run ~policy metric s ~homes in
      Alcotest.(check int) (name ^ " completed") (Stream.total s) r.Runner.completed;
      Alcotest.(check bool) (name ^ " responses sane") true (r.Runner.mean_response >= 1.0))
    all_policies

let test_greedy_cm_needs_no_recovery () =
  let rng = Prng.create ~seed:13 in
  let s =
    Stream.uniform ~rng ~n:12 ~num_objects:6 ~k:3 ~txns_per_node:5 ~mean_gap:2
  in
  let homes = Stream.initial_homes ~rng s in
  let metric = Dtm_topology.Clique.metric 12 in
  let r =
    Runner.run ~policy:(Policy.Timestamp { preemption = true }) metric s ~homes
  in
  Alcotest.(check int) "no forced grants" 0 r.Runner.forced_grants;
  Alcotest.(check bool) "preemptions happen" true (r.Runner.preemptions >= 0)

let test_nearest_deadlock_recovered () =
  (* Classic cross-hold: both transactions need both objects; nearest
     granting splits them and deadlocks, the watchdog recovers. *)
  let s =
    Stream.create ~n:5 ~num_objects:2
      [
        { Stream.node = 0; objects = [ 0; 1 ]; arrival = 1 };
        { Stream.node = 4; objects = [ 0; 1 ]; arrival = 1 };
      ]
  in
  let r = Runner.run ~policy:Policy.Nearest ~patience:10 line5 s ~homes:[| 0; 4 |] in
  Alcotest.(check int) "completed" 2 r.Runner.completed;
  Alcotest.(check bool) "watchdog fired" true (r.Runner.forced_grants > 0)

let test_timestamp_avoids_that_deadlock () =
  let s =
    Stream.create ~n:5 ~num_objects:2
      [
        { Stream.node = 0; objects = [ 0; 1 ]; arrival = 1 };
        { Stream.node = 4; objects = [ 0; 1 ]; arrival = 1 };
      ]
  in
  let r =
    Runner.run ~policy:(Policy.Timestamp { preemption = false }) ~patience:10
      line5 s ~homes:[| 0; 4 |]
  in
  Alcotest.(check int) "completed" 2 r.Runner.completed;
  Alcotest.(check int) "no recovery needed" 0 r.Runner.forced_grants

let test_deterministic () =
  let go () =
    let rng = Prng.create ~seed:17 in
    let s =
      Stream.uniform ~rng ~n:8 ~num_objects:4 ~k:2 ~txns_per_node:3 ~mean_gap:2
    in
    let homes = Stream.initial_homes ~rng s in
    Runner.run ~policy:(Policy.Random_grant 3) (Dtm_topology.Clique.metric 8) s
      ~homes
  in
  let a = go () and b = go () in
  Alcotest.(check int) "same makespan" a.Runner.makespan b.Runner.makespan;
  Alcotest.(check int) "same travel" a.Runner.total_travel b.Runner.total_travel

let prop_online_completes =
  qtest "every policy completes every stream"
    QCheck.(pair (int_range 0 100_000) (int_range 0 4))
    (fun (seed, pi) ->
      let rng = Prng.create ~seed in
      let n = 4 + Prng.int rng 10 in
      let w = 2 + Prng.int rng 5 in
      let s =
        Stream.uniform ~rng ~n ~num_objects:w
          ~k:(1 + Prng.int rng (min 3 w))
          ~txns_per_node:(1 + Prng.int rng 3)
          ~mean_gap:(1 + Prng.int rng 4)
      in
      let homes = Stream.initial_homes ~rng s in
      let metric = Dtm_topology.Torus.metric ~rows:1 ~cols:n in
      let _, policy = List.nth all_policies pi in
      let r = Runner.run ~policy ~patience:20 metric s ~homes in
      r.Runner.completed = Stream.total s)

let prop_greedy_cm_no_recovery =
  qtest ~count:30 "greedy CM never needs the watchdog"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n = 4 + Prng.int rng 8 in
      let w = 2 + Prng.int rng 4 in
      let s =
        Stream.uniform ~rng ~n ~num_objects:w ~k:(min 2 w) ~txns_per_node:3
          ~mean_gap:2
      in
      let homes = Stream.initial_homes ~rng s in
      let r =
        Runner.run
          ~policy:(Policy.Timestamp { preemption = true })
          (Dtm_topology.Clique.metric n) s ~homes
      in
      r.Runner.forced_grants = 0 && r.Runner.completed = Stream.total s)

let test_empty_stream () =
  let rng = Prng.create ~seed:3 in
  let s = Stream.uniform ~rng ~n:5 ~num_objects:2 ~k:1 ~txns_per_node:0 ~mean_gap:2 in
  let homes = Stream.initial_homes ~rng s in
  List.iter
    (fun (name, policy) ->
      let r = Runner.run ~policy line5 s ~homes in
      Alcotest.(check int) (name ^ " makespan") 0 r.Runner.makespan;
      Alcotest.(check int) (name ^ " completed") 0 r.Runner.completed;
      Alcotest.(check (float 0.0)) (name ^ " mean") 0.0 r.Runner.mean_response;
      Alcotest.(check (float 0.0)) (name ^ " p95") 0.0 r.Runner.p95_response;
      Alcotest.(check int) (name ^ " travel") 0 r.Runner.total_travel)
    all_policies

let () =
  Alcotest.run "dtm_online"
    [
      ( "stream",
        [
          Alcotest.test_case "basics" `Quick test_stream_basics;
          Alcotest.test_case "rejects" `Quick test_stream_rejects;
          Alcotest.test_case "uniform shape" `Quick test_stream_uniform_shape;
          Alcotest.test_case "homes" `Quick test_stream_homes;
        ] );
      ( "runner",
        [
          Alcotest.test_case "single local txn" `Quick test_single_local_txn;
          Alcotest.test_case "sequential per node" `Quick test_sequential_per_node;
          Alcotest.test_case "all policies complete" `Quick test_all_policies_complete;
          Alcotest.test_case "greedy CM no recovery" `Quick test_greedy_cm_needs_no_recovery;
          Alcotest.test_case "nearest deadlock recovered" `Quick test_nearest_deadlock_recovered;
          Alcotest.test_case "timestamp avoids split" `Quick test_timestamp_avoids_that_deadlock;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "empty stream" `Quick test_empty_stream;
          prop_online_completes;
          prop_greedy_cm_no_recovery;
        ] );
    ]
