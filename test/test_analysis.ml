(* Tests for the static diagnostics subsystem (dtm_analysis): code
   table, renderers, the schedule analyzer's agreement with the dynamic
   validator, the instance/metric lints, and the approximation
   certificate checker across all seven paper topologies. *)

open Dtm_analysis
module Instance = Dtm_core.Instance
module Schedule = Dtm_core.Schedule
module Validator = Dtm_core.Validator
module Topology = Dtm_topology.Topology
module Metric = Dtm_graph.Metric
module Prng = Dtm_util.Prng

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let uniform rng ~n ~w ~k = Dtm_workload.Uniform.instance ~rng ~n ~num_objects:w ~k ()

(* Fixed 5-node line: three transactions, two objects (as in test_core). *)
let line5 = Dtm_topology.Line.metric 5

let small_inst =
  Instance.create ~n:5 ~num_objects:2
    ~txns:[ (0, [ 0 ]); (2, [ 0; 1 ]); (4, [ 1 ]) ]
    ~home:[| 0; 4 |]

let feasible_small = Schedule.of_times [ (0, 1); (2, 3); (4, 1) ] ~n:5

(* ------------------------------------------------------------------ *)
(* Codes and renderers                                                *)
(* ------------------------------------------------------------------ *)

let test_codes_stable () =
  let ids = List.map Code.id Code.all in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " shape") true
        (String.length id = 6 && String.sub id 0 3 = "DTM"))
    ids;
  List.iter
    (fun c ->
      Alcotest.(check bool) (Code.id c ^ " roundtrip") true
        (Code.of_id (Code.id c) = Some c))
    Code.all;
  Alcotest.(check (option reject)) "unknown id" None (Code.of_id "DTM999")

let test_every_code_renders () =
  List.iter
    (fun c ->
      let d =
        Diagnostic.make ~loc:(Location.make ~obj:3 ~node:7 ~step:9 ()) c
          "synthetic finding"
      in
      let r = Diagnostic.render d in
      Alcotest.(check bool) (Code.id c ^ " text has id") true (contains r (Code.id c));
      Alcotest.(check bool) (Code.id c ^ " text has title") true
        (contains r (Code.title c));
      Alcotest.(check bool) (Code.id c ^ " text has loc") true
        (contains r "(object 3, node 7, step 9)");
      let j = Json.to_string (Diagnostic.to_json d) in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Code.id c ^ " json has " ^ needle) true
            (contains j needle))
        [
          "\"code\": \"" ^ Code.id c ^ "\"";
          "\"severity\": \""
          ^ Severity.to_string (Code.default_severity c)
          ^ "\"";
          "\"object\": 3";
          "\"node\": 7";
          "\"step\": 9";
        ])
    Code.all

let test_report_basics () =
  let e = Diagnostic.make Code.Step_conflict "e" in
  let w = Diagnostic.make Code.Unrequested_object "w" in
  let i = Diagnostic.make Code.Shiftable_start "i" in
  let r = Report.of_diagnostics [ i; w; e; e ] in
  Alcotest.(check int) "dedup" 3 (Report.total r);
  Alcotest.(check int) "errors" 1 (Report.count r Severity.Error);
  Alcotest.(check int) "warnings" 1 (Report.count r Severity.Warning);
  Alcotest.(check int) "infos" 1 (Report.count r Severity.Info);
  (match Report.diagnostics r with
  | first :: _ ->
    Alcotest.(check bool) "errors first" true (Diagnostic.is_error first)
  | [] -> Alcotest.fail "empty report");
  Alcotest.(check int) "exit code" 1 (Report.exit_code r);
  Alcotest.(check int) "clean exit" 0 (Report.exit_code Report.empty);
  Alcotest.(check bool) "summary" true
    (contains (Report.summary r) "1 error, 1 warning, 1 info")

(* ------------------------------------------------------------------ *)
(* Schedule analyzer vs the dynamic validator                         *)
(* ------------------------------------------------------------------ *)

let test_feasible_clean () =
  let errs = Schedule_lint.errors_only line5 small_inst feasible_small in
  Alcotest.(check int) "0 errors" 0 (List.length errs);
  Alcotest.(check bool) "validator agrees" true
    (Validator.is_feasible line5 small_inst feasible_small)

let test_duplicate_step_matches_validator () =
  (* Both requesters of object 0 on one step: the acceptance scenario. *)
  let bad = Schedule.of_times [ (0, 3); (2, 3); (4, 1) ] ~n:5 in
  let errs = Schedule_lint.errors_only line5 small_inst bad in
  Alcotest.(check bool) "analyzer errors" true (errs <> []);
  (match Validator.check line5 small_inst bad with
  | Ok () -> Alcotest.fail "validator should reject"
  | Error v ->
    Alcotest.(check bool) "same object as validator" true
      (List.exists
         (fun d -> d.Diagnostic.loc.Location.obj = v.Validator.obj)
         errs));
  Alcotest.(check bool) "DTM105 reported" true
    (List.exists (fun d -> d.Diagnostic.code = Code.Step_conflict) errs)

let test_unscheduled_and_phantom () =
  let missing = Schedule.of_times [ (0, 1); (2, 3) ] ~n:5 in
  let errs = Schedule_lint.errors_only line5 small_inst missing in
  Alcotest.(check bool) "DTM101" true
    (List.exists
       (fun d ->
         d.Diagnostic.code = Code.Unscheduled_txn
         && d.Diagnostic.loc.Location.node = Some 4)
       errs);
  let phantom = Schedule.of_times [ (0, 1); (2, 3); (4, 1); (1, 2) ] ~n:5 in
  let errs = Schedule_lint.errors_only line5 small_inst phantom in
  Alcotest.(check bool) "DTM102" true
    (List.exists
       (fun d ->
         d.Diagnostic.code = Code.Phantom_entry
         && d.Diagnostic.loc.Location.node = Some 1)
       errs)

let test_capacity_mismatch () =
  let wrong = Schedule.of_times [ (0, 1); (2, 3) ] ~n:3 in
  let errs = Schedule_lint.errors_only line5 small_inst wrong in
  Alcotest.(check bool) "DTM106" true
    (List.exists (fun d -> d.Diagnostic.code = Code.Capacity_mismatch) errs)

let test_shiftable_start () =
  let shifted = Schedule.copy feasible_small in
  Schedule.shift shifted 5;
  let ds = Schedule_lint.check line5 small_inst shifted in
  match
    List.find_opt (fun d -> d.Diagnostic.code = Code.Shiftable_start) ds
  with
  | Some d ->
    Alcotest.(check bool) "mentions slack 5" true
      (contains d.Diagnostic.message "shifted 5 steps")
  | None -> Alcotest.fail "expected DTM107"

(* Random instance on a random example topology, with a randomly
   corrupted schedule: whenever the dynamic validator rejects, the
   static analyzer reports an error at the same object/node; and the
   analyzer is clean iff the validator accepts. *)
let prop_analyzer_matches_validator =
  qtest ~count:300 "validator rejects => analyzer errors at same location"
    QCheck.(pair (int_range 0 12) (int_range 0 100_000))
    (fun (ti, seed) ->
      let topo = List.nth Topology.all_examples (ti mod List.length Topology.all_examples) in
      let metric = Topology.metric topo in
      let rng = Prng.create ~seed in
      let n = Topology.n topo in
      let w = 1 + Prng.int rng (max 1 (n / 2)) in
      let k = 1 + Prng.int rng (min 3 w) in
      let inst = uniform rng ~n ~w ~k in
      let sched = Dtm_core.Greedy.schedule metric inst in
      (* Corrupt half the time: move one scheduled node onto another's
         step or to step 1. *)
      (match (Prng.bool rng, Schedule.scheduled_nodes sched) with
      | true, (_ :: _ as nodes) ->
        let arr = Array.of_list nodes in
        let v = Prng.choose rng arr in
        let t =
          if Prng.bool rng then Schedule.time_exn sched (Prng.choose rng arr)
          else 1
        in
        Schedule.set sched ~node:v ~time:t
      | _ -> ());
      let verdict = Validator.check_all metric inst sched in
      let errs = Schedule_lint.errors_only metric inst sched in
      let clean_agrees = (verdict = []) = (errs = []) in
      let located v =
        List.exists
          (fun d ->
            (v.Validator.obj = None
            || d.Diagnostic.loc.Location.obj = v.Validator.obj)
            && (v.Validator.node = None
               || d.Diagnostic.loc.Location.node = v.Validator.node))
          errs
      in
      clean_agrees && List.for_all located verdict)

(* ------------------------------------------------------------------ *)
(* Instance and metric lints                                          *)
(* ------------------------------------------------------------------ *)

let test_unrequested_object () =
  let inst =
    Instance.create ~n:5 ~num_objects:3 ~txns:[ (0, [ 0 ]); (2, [ 0 ]) ]
      ~home:[| 0; 1; 2 |]
  in
  let ds = Instance_lint.check line5 inst in
  Alcotest.(check bool) "DTM006 for objects 1 and 2" true
    (List.length
       (List.filter (fun d -> d.Diagnostic.code = Code.Unrequested_object) ds)
    = 2);
  Alcotest.(check bool) "DTM008 info" true
    (List.exists (fun d -> d.Diagnostic.code = Code.Home_not_at_requester) ds
    = not (Instance.homes_at_requesters inst))

let test_empty_instance () =
  let inst = Instance.create ~n:3 ~num_objects:1 ~txns:[] ~home:[| 0 |] in
  let ds = Instance_lint.check (Dtm_topology.Line.metric 3) inst in
  Alcotest.(check bool) "DTM005" true
    (List.exists (fun d -> d.Diagnostic.code = Code.Empty_instance) ds)

let test_unreachable_home () =
  (* Two disconnected components: object homed in one, requested in the
     other. *)
  let graph = Dtm_graph.Graph.of_edges ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
  let metric = Dtm_graph.Apsp.to_metric graph in
  let inst =
    Instance.create ~n:4 ~num_objects:1 ~txns:[ (2, [ 0 ]) ] ~home:[| 0 |]
  in
  let ds = Instance_lint.check metric inst in
  Alcotest.(check bool) "DTM001" true
    (List.exists
       (fun d ->
         d.Diagnostic.code = Code.Unreachable_home
         && d.Diagnostic.loc.Location.obj = Some 0
         && d.Diagnostic.loc.Location.node = Some 2)
       ds)

let test_hub_overload () =
  (* Star with 6 rays of one node each: every object requested on every
     ray forces 5 center transits per object. *)
  let p = { Dtm_topology.Star.rays = 6; ray_len = 1 } in
  let topo = Topology.Star p in
  let metric = Topology.metric topo in
  let rays = List.init 6 (fun r -> 1 + r) in
  let w = 6 in
  let inst =
    Instance.create ~n:7 ~num_objects:w
      ~txns:(List.map (fun v -> (v, List.init w Fun.id)) rays)
      ~home:(Array.make w 1)
  in
  let ds = Instance_lint.check ~topo metric inst in
  Alcotest.(check bool) "DTM007" true
    (List.exists (fun d -> d.Diagnostic.code = Code.Hub_overload) ds)

let test_metric_lints () =
  Alcotest.(check (list reject)) "clean metric" []
    (Metric_lint.check line5);
  let bad =
    Metric.of_matrix
      [| [| 0; 5; 1 |]; [| 4; 2; 1 |]; [| 1; 1; 0 |] |]
  in
  let ds = Metric_lint.check bad in
  let has c = List.exists (fun d -> d.Diagnostic.code = c) ds in
  Alcotest.(check bool) "DTM002 asymmetry" true (has Code.Metric_asymmetry);
  Alcotest.(check bool) "DTM003 diagonal" true (has Code.Metric_degenerate);
  Alcotest.(check bool) "DTM004 triangle" true (has Code.Triangle_violation)

(* ------------------------------------------------------------------ *)
(* Certificates                                                       *)
(* ------------------------------------------------------------------ *)

let seven_topologies =
  [
    Topology.Clique 12;
    Topology.Line 16;
    Topology.Grid { rows = 4; cols = 4 };
    Topology.Cluster { Dtm_topology.Cluster.clusters = 3; size = 4; bridge_weight = 5 };
    Topology.Hypercube { dim = 3 };
    Topology.Butterfly { dim = 2 };
    Topology.Star { Dtm_topology.Star.rays = 4; ray_len = 5 };
  ]

let test_certificates_hold () =
  (* 200 seeds x 7 topologies: fanned out on the domain pool (the same
     machinery the -j flag uses).  Workers only compute; every assertion
     runs on the calling domain, in seed order, because Alcotest's
     reporting is not domain-safe. *)
  Dtm_util.Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun topo ->
          let n = Topology.n topo in
          let results =
            Dtm_util.Pool.map pool
              (fun seed ->
                let rng = Prng.create ~seed in
                let w = 1 + Prng.int rng (max 1 (n / 2)) in
                let k = 1 + Prng.int rng (min 3 w) in
                let inst = uniform rng ~n ~w ~k in
                (seed, Certificate.check_auto ~seed topo inst))
              (List.init 200 Fun.id)
          in
          List.iter
            (fun (seed, (cert, diags)) ->
              if diags <> [] then
                Alcotest.failf "%s seed %d: %s"
                  (Topology.to_string topo)
                  seed
                  (String.concat "; " (List.map Diagnostic.render diags));
              match cert.Certificate.bound with
              | Some b ->
                Alcotest.(check bool) "makespan within bound" true
                  (cert.Certificate.makespan <= b)
              | None -> Alcotest.failf "%s: no bound" (Topology.to_string topo))
            results)
        seven_topologies)

let test_certificate_failure_path () =
  (* A deliberately broken bound must trip DTM201. *)
  let broken =
    {
      Certificate.scheduler = "broken";
      topology = "clique:4";
      makespan = 50;
      lower = 5;
      bound = Some 10;
      factor = 2.0;
    }
  in
  (match Certificate.verify broken with
  | [ d ] ->
    Alcotest.(check bool) "DTM201" true
      (d.Diagnostic.code = Code.Certificate_violation);
    Alcotest.(check bool) "is error" true (Diagnostic.is_error d);
    Alcotest.(check bool) "render flags violation" true
      (contains (Certificate.render broken) "VIOLATED")
  | ds ->
    Alcotest.failf "expected one DTM201, got %d findings" (List.length ds));
  let unavailable = { broken with Certificate.bound = None; makespan = 1 } in
  match Certificate.verify unavailable with
  | [ d ] ->
    Alcotest.(check bool) "DTM202" true
      (d.Diagnostic.code = Code.Certificate_unavailable)
  | ds ->
    Alcotest.failf "expected one DTM202, got %d findings" (List.length ds)

let test_certificate_unavailable_disconnected () =
  let graph = Dtm_graph.Graph.of_edges ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
  let topo = Topology.Custom { name = "split"; graph } in
  let inst =
    Instance.create ~n:4 ~num_objects:1 ~txns:[ (0, [ 0 ]); (1, [ 0 ]) ]
      ~home:[| 0 |]
  in
  Alcotest.(check (option reject)) "no finite bound" None
    (Certificate.theorem_bound topo inst)

(* ------------------------------------------------------------------ *)
(* Driver and experiment gate                                         *)
(* ------------------------------------------------------------------ *)

let test_run_auto_clean () =
  let topo = Topology.Grid { rows = 4; cols = 4 } in
  let rng = Prng.create ~seed:11 in
  let inst = uniform rng ~n:16 ~w:8 ~k:2 in
  let report, sched, cert = Analyze.run_auto topo inst in
  Alcotest.(check int) "0 errors" 0 (Report.count report Severity.Error);
  Alcotest.(check bool) "schedule feasible" true
    (Validator.is_feasible (Topology.metric topo) inst sched);
  Alcotest.(check bool) "certificate holds" true
    (match cert.Certificate.bound with
    | Some b -> cert.Certificate.makespan <= b
    | None -> false)

let test_measure_gate () =
  let m = Dtm_expt.Runner.measure line5 small_inst feasible_small in
  Alcotest.(check bool) "clean" true m.Dtm_expt.Runner.clean;
  let bad = Schedule.of_times [ (0, 3); (2, 3); (4, 1) ] ~n:5 in
  let m = Dtm_expt.Runner.measure line5 small_inst bad in
  Alcotest.(check bool) "not feasible" false m.Dtm_expt.Runner.feasible;
  Alcotest.(check bool) "not clean" false m.Dtm_expt.Runner.clean

let () =
  Alcotest.run "dtm_analysis"
    [
      ( "codes",
        [
          Alcotest.test_case "stable ids" `Quick test_codes_stable;
          Alcotest.test_case "every code renders" `Quick test_every_code_renders;
          Alcotest.test_case "report basics" `Quick test_report_basics;
        ] );
      ( "schedule-lint",
        [
          Alcotest.test_case "feasible is clean" `Quick test_feasible_clean;
          Alcotest.test_case "duplicate step = validator verdict" `Quick
            test_duplicate_step_matches_validator;
          Alcotest.test_case "unscheduled + phantom" `Quick
            test_unscheduled_and_phantom;
          Alcotest.test_case "capacity mismatch" `Quick test_capacity_mismatch;
          Alcotest.test_case "shiftable start" `Quick test_shiftable_start;
          prop_analyzer_matches_validator;
        ] );
      ( "instance-lint",
        [
          Alcotest.test_case "unrequested object" `Quick test_unrequested_object;
          Alcotest.test_case "empty instance" `Quick test_empty_instance;
          Alcotest.test_case "unreachable home" `Quick test_unreachable_home;
          Alcotest.test_case "hub overload" `Quick test_hub_overload;
          Alcotest.test_case "metric lints" `Quick test_metric_lints;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "hold on 200 instances x 7 topologies" `Slow
            test_certificates_hold;
          Alcotest.test_case "failure path" `Quick test_certificate_failure_path;
          Alcotest.test_case "unavailable on disconnected" `Quick
            test_certificate_unavailable_disconnected;
        ] );
      ( "driver",
        [
          Alcotest.test_case "run_auto clean" `Quick test_run_auto_clean;
          Alcotest.test_case "experiment gate" `Quick test_measure_gate;
        ] );
    ]
