(* Integration tests: drive the built binaries end-to-end and check exit
   codes and key output.  The dune rule declares the executables as deps,
   so they are available at ../bin relative to the test's cwd. *)

let cli = "../bin/dtm_cli.exe"
let experiments = "../bin/experiments.exe"

let run cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED c -> c | _ -> -1 in
  (code, Buffer.contents buf)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_contains out needles =
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "output mentions %S" n) true
        (contains out n))
    needles

(* Expected output committed next to this test (a dep of the dune rule). *)
let read_expected name = In_channel.with_open_bin name In_channel.input_all

let test_topologies () =
  let code, out = run (cli ^ " topologies") in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out [ "clique:8"; "ring:12"; "star:4x5"; "blocktree:4"; "hypergrid:3x3x3" ]

let test_schedule_clique () =
  let code, out = run (cli ^ " schedule -t clique:16 -w 4 -k 2 --seed 3") in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out [ "feasible:  yes"; "greedy (Thm 1)"; "makespan=" ]

let test_schedule_replay_chart () =
  let code, out = run (cli ^ " schedule -t grid:4x4 -w 6 -k 2 --replay --chart") in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out
    [ "subgrid decomposition (Thm 3)"; "replay:    ok=true"; "parallelism |"; "object" ]

let test_schedule_each_scheduler () =
  List.iter
    (fun s ->
      let code, out =
        run (Printf.sprintf "%s schedule -t ring:12 -w 4 -k 2 --scheduler %s" cli s)
      in
      Alcotest.(check int) (s ^ " exit 0") 0 code;
      check_contains out [ "feasible:  yes" ])
    [ "auto"; "greedy"; "sequential"; "online" ]

let test_schedule_workloads () =
  List.iter
    (fun w ->
      let code, out =
        run (Printf.sprintf "%s schedule -t clique:12 -w 6 -k 2 --workload %s" cli w)
      in
      Alcotest.(check int) (w ^ " exit 0") 0 code;
      check_contains out [ "feasible:  yes" ])
    [ "uniform"; "hot"; "zipf" ]

let test_lower_bound () =
  let code, out = run (cli ^ " lower-bound -t star:4x5 -w 6 -k 2") in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out [ "load l:"; "max walk:"; "certified:"; "requesters, walk in" ]

let test_bad_topology () =
  let code, _ = run (cli ^ " schedule -t widget:9 -w 4 -k 2") in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

let test_save_and_validate_roundtrip () =
  let dir = Filename.temp_file "dtm" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let inst_file = Filename.concat dir "inst.txt" in
  let sched_file = Filename.concat dir "sched.txt" in
  let code, _ =
    run
      (Printf.sprintf
         "%s schedule -t ring:10 -w 4 -k 2 --save-instance %s --save-schedule %s"
         cli inst_file sched_file)
  in
  Alcotest.(check int) "save exit 0" 0 code;
  let code, out =
    run
      (Printf.sprintf "%s validate -t ring:10 --instance %s --schedule %s" cli
         inst_file sched_file)
  in
  Alcotest.(check int) "validate exit 0" 0 code;
  check_contains out [ "feasible: yes" ];
  (* Corrupt the schedule: every transaction at step 1 cannot be valid. *)
  let oc = open_out sched_file in
  output_string oc "dtm-schedule v1\nn 10\nat 0 1\n";
  close_out oc;
  let code, _ =
    run
      (Printf.sprintf "%s validate -t ring:10 --instance %s --schedule %s" cli
         inst_file sched_file)
  in
  Alcotest.(check bool) "invalid rejected" true (code <> 0)

let test_custom_graph_file () =
  let path = Filename.temp_file "dtm" ".graph" in
  let oc = open_out path in
  (* A 5-cycle with one chord. *)
  output_string oc
    "dtm-graph v1\nn 5\nedge 0 1 1\nedge 1 2 1\nedge 2 3 1\nedge 3 4 1\nedge 4 0 1\nedge 0 2 2\n";
  close_out oc;
  let code, out =
    run (Printf.sprintf "%s schedule -t file:%s -w 3 -k 2" cli path)
  in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out [ "custom graph"; "bounded-diameter greedy"; "feasible:  yes" ]

let test_custom_graph_missing_file () =
  let code, _ = run (cli ^ " schedule -t file:/nonexistent.graph -w 3 -k 2") in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

let test_online_subcommand () =
  List.iter
    (fun policy ->
      let code, out =
        run
          (Printf.sprintf "%s online -t grid:4x4 -w 6 -k 2 --txns-per-node 2 --policy %s"
             cli policy)
      in
      Alcotest.(check int) (policy ^ " exit 0") 0 code;
      check_contains out [ "makespan:"; "mean response:" ])
    [ "timestamp"; "greedy-cm"; "nearest"; "random"; "window-greedy" ]

let test_serve_subcommand () =
  List.iter
    (fun dist ->
      let code, out =
        run
          (Printf.sprintf
             "%s serve -t clique:8 -w 16 -k 2 --rate 0.5 --dist %s --horizon 2000"
             cli dist)
      in
      Alcotest.(check int) (dist ^ " exit 0") 0 code;
      check_contains out [ "verdict:"; "injected:"; "latency:"; "recoveries:" ])
    [ "uniform"; "zipf:1.1"; "hot:0.5" ]

(* The one-shard serve transcript, byte for byte, against the expected
   output committed next to this test (captured from the engine before
   the open system and the sharded cell became one). *)
let test_serve_transcript () =
  List.iter
    (fun policy ->
      let expected = read_expected (Printf.sprintf "serve_s1_%s.expected" policy) in
      let code, out =
        run
          (Printf.sprintf
             "%s serve -t grid:8x8 -w 32 -k 2 --rate 0.45 --dist zipf:1.0 \
              --horizon 4000 --shards 1 --policy %s"
             cli policy)
      in
      Alcotest.(check int) (policy ^ " exit 0") 0 code;
      Alcotest.(check string) (policy ^ " transcript") expected out)
    [ "greedy-cm"; "random" ]

let test_serve_critical_flag () =
  let code, out =
    run
      (cli
     ^ " serve -t line:8 -w 8 -k 2 --rate 0.3 --horizon 1500 --critical")
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out [ "critical rate: rho* in [" ]

let test_serve_bad_dist () =
  let code, _ = run (cli ^ " serve -t clique:4 --dist pareto:2") in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

(* Values the engines would reject are usage errors: exit 124 with the
   option named, never an uncaught exception. *)
let test_out_of_range_flags () =
  List.iter
    (fun (args, option) ->
      let code, out = run (cli ^ " " ^ args) in
      Alcotest.(check int) (args ^ " exit 124") 124 code;
      check_contains out [ option; "Usage:" ];
      Alcotest.(check bool) (args ^ " no exception") false
        (contains out "uncaught exception"))
    [
      ("serve -t clique:4 --horizon 0", "--horizon");
      ("serve -t clique:4 --patience 0", "--patience");
      ("serve -t clique:4 --rate 0", "--rate");
      ("serve -t clique:4 --burst 0", "--burst");
      ("serve -t clique:4 --shards 0", "--shards");
      ("online -t clique:4 --mean-gap 0", "--mean-gap");
      ("online -t clique:4 --txns-per-node=-1", "--txns-per-node");
      ("stm -t clique:4 --count 10 --domains 0", "--domains");
      ("stm -t clique:4 --count 10 --domains 1,0", "--domains");
      ("stm -t clique:4 --count 10 --rate 0", "--rate");
      ("schedule -t grid:4x4 -w 0", "-w");
      ("schedule -t grid:4x4 -k 0", "-k");
      (* -k above -w, once per subcommand that draws a workload. *)
      ("schedule -t grid:4x4 -w 2 -k 3", "-k 3 exceeds -w 2");
      ("lower-bound -t grid:4x4 -w 4 -k 9", "-k 9 exceeds -w 4");
      ("analyze -t grid:4x4 -w 2 -k 3", "-k 3 exceeds -w 2");
      ("verify -t line:4 -w 2 -k 3", "-k 3 exceeds -w 2");
      ("online -t clique:4 -w 2 -k 3", "-k 3 exceeds -w 2");
      ("serve -t grid:4x4 -w 2 -k 3", "-k 3 exceeds -w 2");
      ("stm -t clique:4 --count 10 -w 2 -k 3", "-k 3 exceeds -w 2");
      ("schedule -t grid:4x4 -w 4 --capacity 0", "--capacity");
      ("verify -t line:4 -w 3 --capacity 0", "--capacity");
    ]

(* Schedule transcripts with their hop-by-hop replay and a congestion
   run, against output committed next to this test: grid:16x16 (many
   tied shortest paths), a weighted cluster graph, and a grid with
   unequal edge weights loaded from a graph file (tied paths again). *)
let test_replay_transcripts () =
  List.iter
    (fun (name, args) ->
      let code, out =
        run (Printf.sprintf "%s schedule %s --seed 3 --replay --capacity 2" cli args)
      in
      Alcotest.(check int) (name ^ " exit 0") 0 code;
      Alcotest.(check string) (name ^ " transcript")
        (read_expected (Printf.sprintf "replay_%s.expected" name))
        out)
    [
      ("grid16", "-t grid:16x16 -w 32 -k 2");
      ("cluster", "-t cluster:4x5:g7 -w 8 -k 2");
      ("wgrid6", "-t file:wgrid6.graph -w 12 -k 2");
    ]

let test_capacity_flag () =
  let code, out = run (cli ^ " schedule -t star:4x4 -w 6 -k 2 --capacity 1") in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out [ "congestion (cap 1):"; "max_queue=" ]

let test_analyze_clean () =
  let code, out = run (cli ^ " analyze -t grid:8x8 -w 16 -k 2") in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out [ "certificate: makespan"; "[ok]"; "no findings" ]

let test_analyze_json () =
  let code, out = run (cli ^ " analyze -t star:4x5 -w 8 -k 2 --json") in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out
    [ "\"topology\": \"star:4x5\""; "\"certificate\""; "\"errors\": 0"; "\"holds\": true" ]

let test_analyze_codes () =
  let code, out = run (cli ^ " analyze --codes") in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out [ "DTM001"; "DTM105"; "DTM201"; "step-conflict" ]

let test_analyze_corrupted_schedule () =
  let dir = Filename.temp_file "dtm" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let inst_file = Filename.concat dir "inst.txt" in
  let sched_file = Filename.concat dir "sched.txt" in
  let code, _ =
    run
      (Printf.sprintf
         "%s schedule -t line:8 -w 3 -k 2 --save-instance %s --save-schedule %s"
         cli inst_file sched_file)
  in
  Alcotest.(check int) "save exit 0" 0 code;
  let code, _ =
    run
      (Printf.sprintf "%s analyze -t line:8 --instance %s --schedule %s" cli
         inst_file sched_file)
  in
  Alcotest.(check int) "clean schedule accepted" 0 code;
  (* Corrupt: give two requesters of one object the same step by moving
     every transaction to its neighbour's step.  Cheap textual edit:
     duplicate the step of node 0 onto node 1. *)
  let ic = open_in sched_file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let step0 =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "at"; "0"; t ] -> Some t
        | _ -> None)
      !lines
    |> Option.get
  in
  let rewritten =
    List.rev_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "at"; "1"; _ ] -> "at 1 " ^ step0
        | _ -> l)
      !lines
  in
  let oc = open_out sched_file in
  List.iter (fun l -> output_string oc (l ^ "\n")) rewritten;
  close_out oc;
  let code, out =
    run
      (Printf.sprintf "%s analyze -t line:8 --instance %s --schedule %s" cli
         inst_file sched_file)
  in
  Alcotest.(check int) "corrupted exits 1" 1 code;
  check_contains out [ "error DTM10" ];
  (* The dynamic validator agrees. *)
  let code, _ =
    run
      (Printf.sprintf "%s validate -t line:8 --instance %s --schedule %s" cli
         inst_file sched_file)
  in
  Alcotest.(check bool) "validator also rejects" true (code <> 0)

let test_verify_clean () =
  let code, out = run (cli ^ " verify -t line:6 -w 3 -k 2") in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out
    [
      "passes:    static, replay, congestion (cap 1), model";
      "seed 1: makespan=";
      "optimum=";
      "0 errors";
    ]

let test_verify_json () =
  let code, out = run (cli ^ " verify -t grid:4x4 -w 6 -k 2 --seeds 2 --json") in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out
    [
      "\"topology\": \"grid:4x4\"";
      "\"capacity\": 1";
      "\"replay_events\"";
      "\"congestion_makespan\"";
      "\"errors\": 0";
    ]

let test_verify_codes () =
  let code, out = run (cli ^ " verify --codes") in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out
    [ "DTM110"; "DTM115"; "DTM123"; "trace-teleport"; "model-suboptimal" ]

let test_verify_capacity () =
  let code, out = run (cli ^ " verify -t ring:8 -w 4 -k 2 --capacity 2") in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out [ "congestion (cap 2)" ]

let test_experiments_list () =
  let code, out = run (experiments ^ " --list") in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out [ "e1 "; "e13"; "f6" ]

let test_experiments_single () =
  let code, out = run (experiments ^ " f3") in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out [ "Figure 3"; "[ok]" ];
  Alcotest.(check bool) "no failed checks" false (contains out "[FAIL]")

(* E1/E3 carry the trace audit in their feasible column, E8 the
   dependency graph and coloring, E13 the read-replication schedules. *)
let test_experiments_transcripts () =
  List.iter
    (fun e ->
      let code, out = run (Printf.sprintf "%s %s" experiments e) in
      Alcotest.(check int) (e ^ " exit 0") 0 code;
      Alcotest.(check string) (e ^ " stdout")
        (read_expected (Printf.sprintf "experiments_%s.expected" e))
        out)
    [ "e1"; "e3"; "e8"; "e13" ]

let test_experiments_unknown () =
  let code, _ = run (experiments ^ " e99") in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

let () =
  Alcotest.run "dtm_cli"
    [
      ( "cli",
        [
          Alcotest.test_case "topologies" `Quick test_topologies;
          Alcotest.test_case "schedule clique" `Quick test_schedule_clique;
          Alcotest.test_case "replay + chart" `Quick test_schedule_replay_chart;
          Alcotest.test_case "every scheduler" `Quick test_schedule_each_scheduler;
          Alcotest.test_case "every workload" `Quick test_schedule_workloads;
          Alcotest.test_case "lower-bound" `Quick test_lower_bound;
          Alcotest.test_case "bad topology" `Quick test_bad_topology;
          Alcotest.test_case "save + validate" `Quick test_save_and_validate_roundtrip;
          Alcotest.test_case "custom graph file" `Quick test_custom_graph_file;
          Alcotest.test_case "missing graph file" `Quick test_custom_graph_missing_file;
          Alcotest.test_case "online subcommand" `Quick test_online_subcommand;
          Alcotest.test_case "serve subcommand" `Quick test_serve_subcommand;
          Alcotest.test_case "serve transcript" `Quick test_serve_transcript;
          Alcotest.test_case "serve --critical" `Quick test_serve_critical_flag;
          Alcotest.test_case "serve bad dist" `Quick test_serve_bad_dist;
          Alcotest.test_case "out-of-range flags" `Quick test_out_of_range_flags;
          Alcotest.test_case "replay transcripts" `Quick test_replay_transcripts;
          Alcotest.test_case "capacity flag" `Quick test_capacity_flag;
          Alcotest.test_case "analyze clean" `Quick test_analyze_clean;
          Alcotest.test_case "analyze --json" `Quick test_analyze_json;
          Alcotest.test_case "analyze --codes" `Quick test_analyze_codes;
          Alcotest.test_case "analyze corrupted schedule" `Quick
            test_analyze_corrupted_schedule;
          Alcotest.test_case "verify clean" `Quick test_verify_clean;
          Alcotest.test_case "verify --json" `Quick test_verify_json;
          Alcotest.test_case "verify --codes" `Quick test_verify_codes;
          Alcotest.test_case "verify --capacity" `Quick test_verify_capacity;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "--list" `Quick test_experiments_list;
          Alcotest.test_case "single figure" `Quick test_experiments_single;
          Alcotest.test_case "unknown id" `Quick test_experiments_unknown;
          Alcotest.test_case "transcripts" `Quick test_experiments_transcripts;
        ] );
    ]
