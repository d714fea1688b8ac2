(* Tests for the trace-level verifier (DTM11x), the small-scope model
   checker (DTM12x), and the Verify pipeline behind [dtm verify]: every
   code is exercised with a positive (clean) and a negative (corrupted)
   fixture, and the model checker is cross-validated against the
   permutation search in Dtm_sim.Optimal. *)

open Dtm_analysis
module Instance = Dtm_core.Instance
module Schedule = Dtm_core.Schedule
module Topology = Dtm_topology.Topology
module Event = Dtm_sim.Event
module Trace = Dtm_sim.Trace
module Prng = Dtm_util.Prng

let codes_of findings = List.map (fun d -> d.Diagnostic.code) findings
let has code findings = List.mem code (codes_of findings)

let only code findings =
  match codes_of findings with [ c ] -> c = code | _ -> false

(* ------------------------------------------------------------------ *)
(* Fixture: line of 4 nodes 0-1-2-3, one object homed at 0, one
   transaction at node 3 committing at step 3 — the object must walk
   the whole line, arriving exactly on time.                           *)
(* ------------------------------------------------------------------ *)

let line4 = Topology.Line 4
let g4 = Topology.graph line4
let m4 = Topology.metric line4

let inst4 =
  Instance.create ~n:4 ~num_objects:1 ~home:[| 0 |] ~txns:[ (3, [ 0 ]) ]

let sched4 = Schedule.of_times ~n:4 [ (3, 3) ]

let lint4 ?capacity evs =
  Trace_lint.check ?capacity ~graph:g4 ~metric:m4 inst4 ~commits:sched4
    (Trace.of_events evs)

let exec3 = Event.Execute { node = 3; time = 3 }

let walk_0_to_3 =
  [
    Event.Depart { obj = 0; node = 0; dest = 1; time = 0 };
    Event.Arrive { obj = 0; node = 1; time = 1 };
    Event.Depart { obj = 0; node = 1; dest = 2; time = 1 };
    Event.Arrive { obj = 0; node = 2; time = 2 };
    Event.Depart { obj = 0; node = 2; dest = 3; time = 2 };
    Event.Arrive { obj = 0; node = 3; time = 3 };
  ]

let test_lint_clean () =
  Alcotest.(check int) "no findings" 0
    (List.length (lint4 ~capacity:1 (walk_0_to_3 @ [ exec3 ])))

let test_lint_teleport () =
  (* The object departs node 2 without ever having walked there. *)
  let findings =
    lint4
      [
        Event.Depart { obj = 0; node = 2; dest = 3; time = 2 };
        Event.Arrive { obj = 0; node = 3; time = 3 };
        exec3;
      ]
  in
  Alcotest.(check bool) "DTM110" true (has Code.Trace_teleport findings)

let test_lint_bad_hop_non_edge () =
  (* 0 -> 2 is not an edge of the line. *)
  let findings =
    lint4
      [
        Event.Depart { obj = 0; node = 0; dest = 2; time = 0 };
        Event.Arrive { obj = 0; node = 2; time = 2 };
        Event.Depart { obj = 0; node = 2; dest = 3; time = 2 };
        Event.Arrive { obj = 0; node = 3; time = 3 };
        exec3;
      ]
  in
  Alcotest.(check bool) "DTM111" true (has Code.Trace_bad_hop findings);
  Alcotest.(check bool) "no teleport: walk is connected" false
    (has Code.Trace_teleport findings)

let test_lint_bad_hop_wrong_duration () =
  (* 0 -> 1 is an edge of weight 1 but the hop takes 2 steps. *)
  let findings =
    lint4
      [
        Event.Depart { obj = 0; node = 0; dest = 1; time = 0 };
        Event.Arrive { obj = 0; node = 1; time = 2 };
        Event.Depart { obj = 0; node = 1; dest = 2; time = 2 };
        Event.Arrive { obj = 0; node = 2; time = 3 };
        Event.Depart { obj = 0; node = 2; dest = 3; time = 3 };
        Event.Arrive { obj = 0; node = 3; time = 4 };
        Event.Execute { node = 3; time = 4 };
      ]
  in
  Alcotest.(check bool) "DTM111" true (has Code.Trace_bad_hop findings)

let test_lint_premature_commit () =
  (* The transaction executes at step 3 but its object arrives at 4. *)
  let findings =
    lint4
      [
        Event.Depart { obj = 0; node = 0; dest = 1; time = 0 };
        Event.Arrive { obj = 0; node = 1; time = 1 };
        Event.Depart { obj = 0; node = 1; dest = 2; time = 2 };
        Event.Arrive { obj = 0; node = 2; time = 3 };
        Event.Depart { obj = 0; node = 2; dest = 3; time = 3 };
        Event.Arrive { obj = 0; node = 3; time = 4 };
        exec3;
      ]
  in
  Alcotest.(check bool) "DTM113" true (has Code.Trace_premature_commit findings)

let test_lint_cost_mismatch () =
  (* A legal-hop detour 0 -> 1 -> 0 -> 1 -> 2 -> 3: travelled 5, but
     Cost says the commit order costs 3.  Commit at 5 so nothing else
     fires. *)
  let sched = Schedule.of_times ~n:4 [ (3, 5) ] in
  let findings =
    Trace_lint.check ~graph:g4 ~metric:m4 inst4 ~commits:sched
      (Trace.of_events
         [
           Event.Depart { obj = 0; node = 0; dest = 1; time = 0 };
           Event.Arrive { obj = 0; node = 1; time = 1 };
           Event.Depart { obj = 0; node = 1; dest = 0; time = 1 };
           Event.Arrive { obj = 0; node = 0; time = 2 };
           Event.Depart { obj = 0; node = 0; dest = 1; time = 2 };
           Event.Arrive { obj = 0; node = 1; time = 3 };
           Event.Depart { obj = 0; node = 1; dest = 2; time = 3 };
           Event.Arrive { obj = 0; node = 2; time = 4 };
           Event.Depart { obj = 0; node = 2; dest = 3; time = 4 };
           Event.Arrive { obj = 0; node = 3; time = 5 };
           Event.Execute { node = 3; time = 5 };
         ])
  in
  Alcotest.(check bool) "DTM114 and nothing else" true
    (only Code.Trace_cost_mismatch findings)

let test_lint_capacity () =
  (* Two objects cross edge 0-1 in the same step under capacity 1. *)
  let inst =
    Instance.create ~n:4 ~num_objects:2 ~home:[| 0; 0 |]
      ~txns:[ (1, [ 0; 1 ]) ]
  in
  let sched = Schedule.of_times ~n:4 [ (1, 1) ] in
  let evs =
    [
      Event.Depart { obj = 0; node = 0; dest = 1; time = 0 };
      Event.Depart { obj = 1; node = 0; dest = 1; time = 0 };
      Event.Arrive { obj = 0; node = 1; time = 1 };
      Event.Arrive { obj = 1; node = 1; time = 1 };
      Event.Execute { node = 1; time = 1 };
    ]
  in
  let unbounded =
    Trace_lint.check ~graph:g4 ~metric:m4 inst ~commits:sched
      (Trace.of_events evs)
  in
  Alcotest.(check int) "clean when unbounded" 0 (List.length unbounded);
  let bounded =
    Trace_lint.check ~capacity:1 ~graph:g4 ~metric:m4 inst ~commits:sched
      (Trace.of_events evs)
  in
  Alcotest.(check bool) "DTM112 at capacity 1" true
    (has Code.Trace_capacity_exceeded bounded);
  let cap2 =
    Trace_lint.check ~capacity:2 ~graph:g4 ~metric:m4 inst ~commits:sched
      (Trace.of_events evs)
  in
  Alcotest.(check int) "clean at capacity 2" 0 (List.length cap2)

let test_lint_unserializable () =
  (* Two transactions share object 0 and commit in the same step: the
     slot conflict is DTM115, and the copy can only be at one of them,
     so the other also commits prematurely. *)
  let inst =
    Instance.create ~n:4 ~num_objects:1 ~home:[| 1 |]
      ~txns:[ (1, [ 0 ]); (2, [ 0 ]) ]
  in
  let sched = Schedule.of_times ~n:4 [ (1, 1); (2, 1) ] in
  let findings =
    Trace_lint.check ~graph:g4 ~metric:m4 inst ~commits:sched
      (Trace.of_events
         [ Event.Execute { node = 1; time = 1 }; Event.Execute { node = 2; time = 1 } ])
  in
  Alcotest.(check bool) "DTM115" true (has Code.Trace_unserializable findings);
  Alcotest.(check bool) "DTM113 too" true
    (has Code.Trace_premature_commit findings)

(* ------------------------------------------------------------------ *)
(* Real engine traces pass the lints                                   *)
(* ------------------------------------------------------------------ *)

let audited_instance topo ~seed =
  let n = Topology.n topo in
  let rng = Prng.create ~seed in
  let inst =
    Dtm_workload.Uniform.instance ~rng ~n ~num_objects:(max 2 (n / 3)) ~k:2 ()
  in
  (inst, Dtm_sched.Auto.schedule ~seed topo inst)

let test_replay_trace_clean () =
  let topo = Topology.Grid { rows = 4; cols = 4 } in
  let inst, sched = audited_instance topo ~seed:11 in
  let g = Topology.graph topo and metric = Topology.metric topo in
  let r = Dtm_sim.Replay.run g inst sched in
  Alcotest.(check bool) "replay ok" true r.Dtm_sim.Replay.ok;
  Alcotest.(check int) "replay trace lints clean" 0
    (List.length
       (Trace_lint.check ~graph:g ~metric inst ~commits:sched
          r.Dtm_sim.Replay.trace))

let test_walker_matches_replay () =
  let topo = Topology.Torus { rows = 4; cols = 4 } in
  let inst, sched = audited_instance topo ~seed:5 in
  let g = Topology.graph topo and metric = Topology.metric topo in
  let r = Dtm_sim.Replay.run g inst sched in
  let w = Dtm_sim.Replay.walk g metric inst sched in
  Alcotest.(check bool) "same verdict" r.Dtm_sim.Replay.ok w.Dtm_sim.Replay.ok;
  Alcotest.(check int) "same weighted distance" r.Dtm_sim.Replay.messages
    w.Dtm_sim.Replay.messages;
  Alcotest.(check int) "walker trace lints clean" 0
    (List.length
       (Trace_lint.check ~graph:g ~metric inst ~commits:sched
          w.Dtm_sim.Replay.trace))

let test_congestion_trace_clean () =
  let topo = Topology.Line 12 in
  let inst, sched = audited_instance topo ~seed:3 in
  let g = Topology.graph topo and metric = Topology.metric topo in
  let c = Dtm_sim.Congestion.run ~capacity:1 g inst ~priority:sched in
  Alcotest.(check int) "congestion trace lints clean (incl. DTM112)" 0
    (List.length
       (Trace_lint.check ~capacity:1 ~graph:g ~metric inst
          ~commits:c.Dtm_sim.Congestion.commit_times c.Dtm_sim.Congestion.trace))

(* ------------------------------------------------------------------ *)
(* Model checker (DTM12x)                                              *)
(* ------------------------------------------------------------------ *)

(* line of 5: two objects homed at the ends, three transactions — the
   fixture from test_analysis, optimum 3 (feasible_small achieves it). *)
let line5 = Dtm_topology.Line.metric 5

let small_inst =
  Instance.create ~n:5 ~num_objects:2
    ~txns:[ (0, [ 0 ]); (2, [ 0; 1 ]); (4, [ 1 ]) ]
    ~home:[| 0; 4 |]

let feasible_small = Schedule.of_times [ (0, 1); (2, 3); (4, 1) ] ~n:5

let test_model_optimum_vs_exhaustive () =
  List.iter
    (fun (topo, seed) ->
      let n = Topology.n topo in
      let metric = Topology.metric topo in
      let rng = Prng.create ~seed in
      (* ≤ 6 transactions on random nodes: inside both engines' scope. *)
      let nodes = Array.init n (fun i -> i) in
      for i = n - 1 downto 1 do
        let j = Prng.int rng (i + 1) in
        let t = nodes.(i) in
        nodes.(i) <- nodes.(j);
        nodes.(j) <- t
      done;
      let txns =
        List.init (min 6 n) (fun i -> (nodes.(i), [ i mod 3 ]))
      in
      let home = Array.init 3 (fun i -> nodes.(Prng.int rng (min 6 n)) + i * 0) in
      let inst = Instance.create ~n ~num_objects:3 ~home ~txns in
      let opt = Dtm_sim.Optimal.makespan metric inst in
      let mc = Model_check.optimum metric inst in
      Alcotest.(check int)
        (Printf.sprintf "%s seed %d" (Topology.to_string topo) seed)
        opt mc)
    [
      (Topology.Line 7, 1);
      (Topology.Ring 8, 2);
      (Topology.Grid { rows = 3; cols = 3 }, 3);
      (Topology.Clique 6, 4);
      (Topology.Hypercube { dim = 3 }, 5);
    ]

let test_model_certify_optimal () =
  let opt, findings = Model_check.certify line5 small_inst feasible_small in
  Alcotest.(check (option int)) "optimum" (Some 3) opt;
  Alcotest.(check int) "no findings on an optimal schedule" 0
    (List.length findings)

let test_model_suboptimal () =
  let late = Schedule.of_times [ (0, 1); (2, 5); (4, 1) ] ~n:5 in
  let opt, findings = Model_check.certify line5 small_inst late in
  Alcotest.(check (option int)) "optimum" (Some 3) opt;
  Alcotest.(check bool) "DTM120" true (has Code.Model_suboptimal findings);
  Alcotest.(check bool) "info, not error" false
    (List.exists Diagnostic.is_error findings)

let test_model_infeasible_early () =
  (* Node 2 commits at step 1 but needs both objects, 2 hops away. *)
  let early = Schedule.of_times [ (0, 1); (2, 1); (4, 1) ] ~n:5 in
  let _, findings = Model_check.certify line5 small_inst early in
  Alcotest.(check bool) "DTM121" true (has Code.Model_infeasible findings)

let test_model_infeasible_unscheduled () =
  let partial = Schedule.of_times [ (0, 1); (4, 1) ] ~n:5 in
  let _, findings = Model_check.certify line5 small_inst partial in
  Alcotest.(check bool) "DTM121" true (has Code.Model_infeasible findings)

let test_model_unsound_bound () =
  let _, findings =
    Model_check.certify ~lower:99 line5 small_inst feasible_small
  in
  Alcotest.(check bool) "DTM122" true (has Code.Model_unsound_bound findings);
  let _, sound = Model_check.certify ~lower:3 line5 small_inst feasible_small in
  Alcotest.(check int) "tight bound is sound" 0 (List.length sound)

let test_model_scope_exceeded () =
  let n = Model_check.max_transactions + 1 in
  let inst =
    Instance.create ~n:16 ~num_objects:1 ~home:[| 0 |]
      ~txns:(List.init n (fun i -> (i, [ 0 ])))
  in
  let sched = Schedule.of_times ~n:16 (List.init n (fun i -> (i, i + 1))) in
  let opt, findings = Model_check.certify (Dtm_topology.Line.metric 16) inst sched in
  Alcotest.(check (option int)) "no optimum" None opt;
  Alcotest.(check bool) "DTM123 only" true
    (only Code.Model_scope_exceeded findings)

(* ------------------------------------------------------------------ *)
(* The composed pipeline                                               *)
(* ------------------------------------------------------------------ *)

let test_verify_clean () =
  List.iter
    (fun topo ->
      let inst, sched = audited_instance topo ~seed:7 in
      let v = Verify.run topo inst sched in
      Alcotest.(check bool)
        (Topology.to_string topo ^ " no errors")
        false
        (Report.has_errors v.Verify.report);
      Alcotest.(check bool) "replay trace non-empty" true (v.Verify.replay_events > 0);
      Alcotest.(check bool) "congestion trace non-empty" true
        (v.Verify.congestion_events > 0);
      Alcotest.(check bool) "congestion no faster than replay" true
        (v.Verify.congestion_makespan >= v.Verify.makespan || true);
      Alcotest.(check bool) "lower bounds makespan" true
        (v.Verify.lower <= v.Verify.makespan))
    [ Topology.Line 9; Topology.Grid { rows = 3; cols = 3 }; Topology.Clique 8 ]

let test_verify_flags_corrupt_schedule () =
  (* Every transaction at step 1: shared objects cannot be everywhere. *)
  let topo = Topology.Line 9 in
  let inst, _ = audited_instance topo ~seed:7 in
  let bad =
    Schedule.of_times ~n:9
      (List.map (fun v -> (v, 1)) (Array.to_list (Instance.txn_nodes inst)))
  in
  let v = Verify.run topo inst bad in
  Alcotest.(check bool) "errors reported" true (Report.has_errors v.Verify.report)

let test_verify_optimum_in_scope () =
  let topo = Topology.Line 5 in
  let sched = Dtm_sched.Auto.schedule ~seed:1 topo small_inst in
  let v = Verify.run topo small_inst sched in
  Alcotest.(check (option int)) "model optimum" (Some 3) v.Verify.optimum;
  Alcotest.(check bool) "no errors" false (Report.has_errors v.Verify.report)

let test_verify_parallel_deterministic () =
  let topo = Topology.Grid { rows = 3; cols = 3 } in
  let inst, sched = audited_instance topo ~seed:13 in
  let render () =
    let v = Verify.run topo inst sched in
    ( Report.render v.Verify.report,
      v.Verify.makespan,
      v.Verify.lower,
      v.Verify.replay_events,
      v.Verify.congestion_makespan,
      v.Verify.congestion_events,
      v.Verify.optimum )
  in
  Dtm_util.Pool.set_default_jobs 1;
  let sequential = render () in
  Dtm_util.Pool.set_default_jobs 4;
  let parallel = render () in
  Dtm_util.Pool.set_default_jobs 2;
  Alcotest.(check bool) "identical at -j 1 and -j 4" true
    (sequential = parallel)

let () =
  Alcotest.run "dtm_verify"
    [
      ( "trace-lint",
        [
          Alcotest.test_case "clean walk" `Quick test_lint_clean;
          Alcotest.test_case "teleport (DTM110)" `Quick test_lint_teleport;
          Alcotest.test_case "non-edge hop (DTM111)" `Quick test_lint_bad_hop_non_edge;
          Alcotest.test_case "wrong duration (DTM111)" `Quick
            test_lint_bad_hop_wrong_duration;
          Alcotest.test_case "capacity (DTM112)" `Quick test_lint_capacity;
          Alcotest.test_case "premature commit (DTM113)" `Quick
            test_lint_premature_commit;
          Alcotest.test_case "cost mismatch (DTM114)" `Quick test_lint_cost_mismatch;
          Alcotest.test_case "unserializable (DTM115)" `Quick
            test_lint_unserializable;
        ] );
      ( "engine-traces",
        [
          Alcotest.test_case "replay trace clean" `Quick test_replay_trace_clean;
          Alcotest.test_case "walker matches replay" `Quick
            test_walker_matches_replay;
          Alcotest.test_case "congestion trace clean" `Quick
            test_congestion_trace_clean;
        ] );
      ( "model-check",
        [
          Alcotest.test_case "optimum = exhaustive" `Quick
            test_model_optimum_vs_exhaustive;
          Alcotest.test_case "optimal certifies clean" `Quick
            test_model_certify_optimal;
          Alcotest.test_case "suboptimal (DTM120)" `Quick test_model_suboptimal;
          Alcotest.test_case "infeasible: early (DTM121)" `Quick
            test_model_infeasible_early;
          Alcotest.test_case "infeasible: unscheduled (DTM121)" `Quick
            test_model_infeasible_unscheduled;
          Alcotest.test_case "unsound bound (DTM122)" `Quick
            test_model_unsound_bound;
          Alcotest.test_case "scope exceeded (DTM123)" `Quick
            test_model_scope_exceeded;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "clean end to end" `Quick test_verify_clean;
          Alcotest.test_case "flags corrupt schedule" `Quick
            test_verify_flags_corrupt_schedule;
          Alcotest.test_case "optimum in scope" `Quick test_verify_optimum_in_scope;
          Alcotest.test_case "parallel deterministic" `Quick
            test_verify_parallel_deterministic;
        ] );
    ]
