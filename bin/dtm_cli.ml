(* dtm: command-line front end.

   Examples:
     dtm schedule -t clique:64 -w 16 -k 3 --seed 1
     dtm schedule -t grid:16x16 -w 32 -k 2 --scheduler sequential --replay
     dtm lower-bound -t star:8x7 -w 12 -k 2
     dtm topologies *)

open Cmdliner
module Topology = Dtm_topology.Topology
module Instance = Dtm_core.Instance
module Schedule = Dtm_core.Schedule

let topo_conv =
  let parse s =
    (* "file:PATH" loads an arbitrary graph in the dtm-graph format and
       schedules it with the Section 3.1 bounded-diameter greedy. *)
    if String.length s > 5 && String.sub s 0 5 = "file:" then begin
      let path = String.sub s 5 (String.length s - 5) in
      if not (Sys.file_exists path) then Error (`Msg ("no such file: " ^ path))
      else begin
        let ic = open_in path in
        let len = in_channel_length ic in
        let contents = really_input_string ic len in
        close_in ic;
        match Dtm_graph.Graph_io.of_string contents with
        | Ok graph ->
          Ok (Topology.Custom { name = Filename.basename path; graph })
        | Error e -> Error (`Msg ("cannot parse graph: " ^ e))
      end
    end
    else Topology.of_string s |> Result.map_error (fun e -> `Msg e)
  in
  Arg.conv (parse, fun fmt t -> Format.pp_print_string fmt (Topology.to_string t))

let topo_arg =
  Arg.(
    required
    & opt (some topo_conv) None
    & info [ "t"; "topology" ] ~docv:"TOPO"
        ~doc:
          "Topology, e.g. clique:64, line:128, grid:16x16, torus:8x8, \
           hypercube:6, butterfly:4, cluster:5x6:g12, star:8x7, blockgrid:9, \
           blocktree:9, powerlaw:100000x3:s42.")

(* Range-checked numbers: a value the engines would reject is a usage
   error (exit 124) at parse time, not an uncaught exception later. *)
let bounded conv ~expect ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expect))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let int_at_least lo =
  bounded Arg.int ~expect:(Printf.sprintf "an integer >= %d" lo) (fun v -> v >= lo)

let positive_float = bounded Arg.float ~expect:"a number > 0" (fun v -> v > 0.0)

let objects_arg =
  Arg.(value & opt (int_at_least 1) 16 & info [ "w"; "objects" ] ~docv:"W" ~doc:"Number of shared objects.")

let k_arg =
  Arg.(value & opt (int_at_least 1) 2 & info [ "k" ] ~docv:"K" ~doc:"Objects requested per transaction.")

(* -w and -k together: a transaction requests k distinct objects out of
   w, so k > w is a usage error (exit 124) rather than an uncaught
   Invalid_argument from the workload generator. *)
let objects_k_arg =
  let check w k =
    if k > w then
      `Error
        ( true,
          Printf.sprintf
            "-k %d exceeds -w %d: a transaction requests at most W distinct \
             objects"
            k w )
    else `Ok (w, k)
  in
  Term.(ret (const check $ objects_arg $ k_arg))

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Size of the domain pool the analysis and measurement passes \
           run on (default: all recommended domains).  Results are \
           merged in submission order, so output is byte-identical for \
           any $(docv).")

let apply_jobs = function
  | None -> ()
  | Some j when j >= 1 -> Dtm_util.Pool.set_default_jobs j
  | Some j ->
    Printf.eprintf "invalid -j value %d (need an integer >= 1)\n" j;
    exit 124

let policy_conv =
  Arg.enum
    [
      ("timestamp", Dtm_online.Policy.Timestamp { preemption = false });
      ("greedy-cm", Dtm_online.Policy.Timestamp { preemption = true });
      ("nearest", Dtm_online.Policy.Nearest);
      ("random", Dtm_online.Policy.Random_grant 1);
      ("window-greedy", Dtm_online.Policy.Window_greedy { window = 16; seed = 1 });
      ("backoff", Dtm_online.Policy.Backoff { seed = 1; limit = 8 });
    ]

let dist_conv =
  let module I = Dtm_workload.Injection in
  let parse s =
    match String.split_on_char ':' s with
    | [ "uniform" ] -> Ok I.Uniform_objects
    | [ "zipf"; e ] -> (
      match float_of_string_opt e with
      | Some e when e >= 0.0 -> Ok (I.Zipf_objects e)
      | _ -> Error (`Msg "zipf wants a non-negative exponent, e.g. zipf:1.1"))
    | [ "hot"; p ] -> (
      match float_of_string_opt p with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (I.Hot_objects p)
      | _ -> Error (`Msg "hot wants a probability, e.g. hot:0.8"))
    | _ -> Error (`Msg "expected uniform, zipf:EXPONENT, or hot:PROB")
  in
  Arg.conv (parse, fun ppf d -> Format.pp_print_string ppf (I.dist_to_string d))

let workload_arg =
  Arg.(
    value
    & opt (enum [ ("uniform", `Uniform); ("hot", `Hot); ("zipf", `Zipf) ]) `Uniform
    & info [ "workload" ] ~docv:"KIND" ~doc:"Workload: uniform, hot, or zipf.")

let scheduler_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("auto", `Auto);
             ("greedy", `Greedy);
             ("sequential", `Sequential);
             ("online", `Online);
           ])
        `Auto
    & info [ "scheduler" ] ~docv:"ALGO"
        ~doc:
          "auto (the paper's algorithm for the topology), greedy (Section \
           2.3), sequential baseline, or online list scheduling.")

let replay_arg =
  Arg.(value & flag & info [ "replay" ] ~doc:"Also replay the schedule hop-by-hop.")

let times_arg =
  Arg.(value & flag & info [ "times" ] ~doc:"Print each transaction's execution step.")

let save_instance_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-instance" ] ~docv:"FILE"
        ~doc:"Write the generated instance in the dtm-instance format.")

let save_schedule_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-schedule" ] ~docv:"FILE"
        ~doc:"Write the computed schedule in the dtm-schedule format.")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let chart_arg =
  Arg.(
    value & flag
    & info [ "chart" ]
        ~doc:"Render an ASCII Gantt chart, parallelism profile, and object journeys.")

let make_instance topo ~w ~k ~seed ~workload =
  let n = Topology.n topo in
  let rng = Dtm_util.Prng.create ~seed in
  match workload with
  | `Uniform -> Dtm_workload.Uniform.instance ~rng ~n ~num_objects:w ~k ()
  | `Hot -> Dtm_workload.Arbitrary.hot_object ~rng ~n ~num_objects:w ~k
  | `Zipf -> Dtm_workload.Zipf.instance ~rng ~n ~num_objects:w ~k ~exponent:1.0

let capacity_arg =
  Arg.(
    value
    & opt (some (int_at_least 1)) None
    & info [ "capacity" ] ~docv:"C"
        ~doc:
          "Also execute the schedule's visit orders under a per-edge \
           admission bound of $(docv) objects per step (congestion \
           extension).")

let schedule_cmd =
  let run topo (w, k) seed workload scheduler replay times chart save_inst save_sched
      capacity jobs =
    apply_jobs jobs;
    let inst = make_instance topo ~w ~k ~seed ~workload in
    let metric = Topology.metric topo in
    let name, sched =
      match scheduler with
      | `Auto -> (Dtm_sched.Auto.name topo, Dtm_sched.Auto.schedule ~seed topo inst)
      | `Greedy -> ("basic greedy (Sec 2.3)", Dtm_core.Greedy.schedule metric inst)
      | `Sequential -> ("sequential baseline", Dtm_sched.Baseline.sequential metric inst)
      | `Online -> ("online list scheduling", Dtm_sim.Engine.run metric inst)
    in
    Printf.printf "topology:  %s\n" (Topology.describe topo);
    Printf.printf "workload:  %d objects, k = %d, seed = %d\n" w k seed;
    Printf.printf "scheduler: %s\n" name;
    (match Dtm_core.Validator.check metric inst sched with
    | Ok () -> Printf.printf "feasible:  yes\n"
    | Error v -> Printf.printf "feasible:  NO - %s\n" (Dtm_core.Validator.explain v));
    Printf.printf "%s\n" (Dtm_core.Cost.summary metric inst sched);
    if times then
      List.iter
        (fun v -> Printf.printf "  node %d -> step %d\n" v (Schedule.time_exn sched v))
        (Schedule.scheduled_nodes sched);
    (match save_inst with
    | Some path ->
      write_file path (Dtm_core.Serial.instance_to_string inst);
      Printf.printf "instance saved to %s\n" path
    | None -> ());
    (match save_sched with
    | Some path ->
      write_file path (Dtm_core.Serial.schedule_to_string sched);
      Printf.printf "schedule saved to %s\n" path
    | None -> ());
    if chart then begin
      print_newline ();
      print_string (Dtm_sim.Gantt.chart inst sched);
      print_string (Dtm_sim.Gantt.parallelism_profile sched);
      print_newline ();
      print_string (Dtm_sim.Gantt.object_journeys metric inst sched)
    end;
    (* Bind the graph once: replay and congestion share one router (the
       [?router] argument requires physical equality with its graph). *)
    let graph = lazy (Topology.graph topo) in
    let router = lazy (Dtm_sim.Router.create (Lazy.force graph)) in
    if replay then begin
      let r =
        Dtm_sim.Replay.run ~router:(Lazy.force router) (Lazy.force graph) inst
          sched
      in
      Printf.printf "replay:    ok=%b messages=%d hops=%d idle=%d events=%d\n"
        r.Dtm_sim.Replay.ok r.Dtm_sim.Replay.messages r.Dtm_sim.Replay.hops
        r.Dtm_sim.Replay.total_wait
        (Dtm_sim.Trace.length r.Dtm_sim.Replay.trace)
    end;
    match capacity with
    | None -> ()
    | Some c ->
      let r =
        Dtm_sim.Congestion.run ~router:(Lazy.force router) ~capacity:c
          (Lazy.force graph) inst ~priority:sched
      in
      Printf.printf
        "congestion (cap %d): makespan=%d delayed_hops=%d max_queue=%d\n" c
        r.Dtm_sim.Congestion.makespan r.Dtm_sim.Congestion.delayed_hops
        r.Dtm_sim.Congestion.max_queue
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Generate a workload and schedule it.")
    Term.(
      const run $ topo_arg $ objects_k_arg $ seed_arg $ workload_arg
      $ scheduler_arg $ replay_arg $ times_arg $ chart_arg $ save_instance_arg
      $ save_schedule_arg $ capacity_arg $ jobs_arg)

let lower_bound_cmd =
  let run topo (w, k) seed workload =
    let inst = make_instance topo ~w ~k ~seed ~workload in
    let metric = Topology.metric topo in
    let lb = Dtm_core.Lower_bound.compute metric inst in
    Printf.printf "topology:    %s\n" (Topology.describe topo);
    Printf.printf "load l:      %d\n" lb.Dtm_core.Lower_bound.load;
    Printf.printf "max walk:    %d\n" lb.Dtm_core.Lower_bound.max_walk;
    Printf.printf "certified:   %d\n" lb.Dtm_core.Lower_bound.certified;
    Array.iter
      (fun p ->
        if p.Dtm_core.Lower_bound.requesters > 0 then begin
          let wk = p.Dtm_core.Lower_bound.walk in
          Printf.printf "  object %d: %d requesters, walk in [%d, %d]%s\n"
            p.Dtm_core.Lower_bound.obj p.Dtm_core.Lower_bound.requesters
            wk.Dtm_graph.Walk.lower wk.Dtm_graph.Walk.upper
            (match wk.Dtm_graph.Walk.exact with
            | Some e -> Printf.sprintf " (exact %d)" e
            | None -> "")
        end)
      lb.Dtm_core.Lower_bound.per_object
  in
  Cmd.v
    (Cmd.info "lower-bound" ~doc:"Show the certified lower bound of an instance.")
    Term.(const run $ topo_arg $ objects_k_arg $ seed_arg $ workload_arg)

let validate_cmd =
  let run topo inst_file sched_file =
    let fail msg =
      prerr_endline msg;
      exit 1
    in
    let inst =
      match Dtm_core.Serial.instance_of_string (read_file inst_file) with
      | Ok i -> i
      | Error e -> fail ("cannot parse instance: " ^ e)
    in
    let sched =
      match Dtm_core.Serial.schedule_of_string (read_file sched_file) with
      | Ok s -> s
      | Error e -> fail ("cannot parse schedule: " ^ e)
    in
    if Instance.n inst <> Topology.n topo then
      fail "instance node count does not match the topology";
    let metric = Topology.metric topo in
    match Dtm_core.Validator.check metric inst sched with
    | Ok () ->
      Printf.printf "feasible: yes\n%s\n" (Dtm_core.Cost.summary metric inst sched)
    | Error v ->
      Printf.printf "feasible: NO - %s\n" (Dtm_core.Validator.explain v);
      exit 2
  in
  let inst_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "instance" ] ~docv:"FILE" ~doc:"Instance file (dtm-instance format).")
  in
  let sched_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "schedule" ] ~docv:"FILE" ~doc:"Schedule file (dtm-schedule format).")
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Validate a saved schedule against a saved instance.")
    Term.(const run $ topo_arg $ inst_file $ sched_file)

let online_cmd =
  let run topo (w, k) seed txns_per_node mean_gap policy =
    let n = Topology.n topo in
    let metric = Topology.metric topo in
    let rng = Dtm_util.Prng.create ~seed in
    let stream =
      Dtm_online.Stream.uniform ~rng ~n ~num_objects:w ~k ~txns_per_node
        ~mean_gap
    in
    let homes = Dtm_online.Stream.initial_homes ~rng stream in
    let r = Dtm_online.Runner.run ~policy metric stream ~homes in
    Printf.printf "topology:      %s\n" (Topology.describe topo);
    Printf.printf "stream:        %d transactions (%d per node), mean gap %d\n"
      (Dtm_online.Stream.total stream)
      txns_per_node mean_gap;
    Printf.printf "policy:        %s\n" (Dtm_online.Policy.to_string policy);
    Printf.printf "makespan:      %d\n" r.Dtm_online.Runner.makespan;
    Printf.printf "mean response: %.2f (p95 %.2f)\n" r.Dtm_online.Runner.mean_response
      r.Dtm_online.Runner.p95_response;
    Printf.printf "travel:        %d weighted units\n" r.Dtm_online.Runner.total_travel;
    Printf.printf "recoveries:    %d forced grants, %d preemptions\n"
      r.Dtm_online.Runner.forced_grants r.Dtm_online.Runner.preemptions
  in
  let txns_arg =
    Arg.(value & opt (int_at_least 0) 4 & info [ "txns-per-node" ] ~docv:"T" ~doc:"Transactions issued per node.")
  in
  let gap_arg =
    Arg.(value & opt (int_at_least 1) 3 & info [ "mean-gap" ] ~docv:"G" ~doc:"Mean inter-arrival gap per node.")
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv (Dtm_online.Policy.Timestamp { preemption = true })
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Contention manager: timestamp, greedy-cm, nearest, random, \
             window-greedy, or backoff.")
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:"Run a continuous transaction stream under a contention manager.")
    Term.(
      const run $ topo_arg $ objects_k_arg $ seed_arg $ txns_arg $ gap_arg
      $ policy_arg)

let serve_cmd =
  let run topo (w, k) seed rate burst dist policy horizon patience critical shards
      jobs =
    apply_jobs jobs;
    let n = Topology.n topo in
    let metric = Topology.metric topo in
    let spec =
      { Dtm_workload.Injection.n; num_objects = w; k; rate; burst; dist; seed }
    in
    let homes = Dtm_workload.Injection.homes spec in
    Printf.printf "topology:      %s\n" (Topology.describe topo);
    Printf.printf "injection:     %s\n" (Dtm_workload.Injection.describe spec);
    Printf.printf "policy:        %s\n" (Dtm_online.Policy.to_string policy);
    if shards > 1 then Printf.printf "shards:        %d\n" shards;
    let serve rate =
      let factory =
        Dtm_workload.Injection.source_factory
          { spec with Dtm_workload.Injection.rate }
      in
      Dtm_online.Sharded.run ~policy ~patience ~shards metric factory ~homes
        ~horizon
    in
    let r = serve rate in
    let module O = Dtm_online.Open_system in
    Printf.printf "horizon:       %d steps\n" r.O.horizon;
    Printf.printf "verdict:       %s\n" (O.verdict_to_string r.O.verdict);
    Printf.printf "injected:      %d txns (committed %d)\n" r.O.injected
      r.O.committed;
    Printf.printf "queue:         final %d, peak %d, mean %.1f\n" r.O.final_queue
      r.O.peak_queue r.O.mean_queue;
    if r.O.committed > 0 then
      Printf.printf "latency:       p50 %d, p99 %d, p999 %d, max %d steps\n"
        r.O.latency_p50 r.O.latency_p99 r.O.latency_p999 r.O.max_latency;
    Printf.printf "travel:        %d weighted units\n" r.O.total_travel;
    Printf.printf "recoveries:    %d forced grants, %d preemptions\n"
      r.O.forced_grants r.O.preemptions;
    if critical then begin
      let stable rho = (serve rho).O.verdict = O.Bounded in
      let lo, hi =
        O.critical_rate ~lo:(rate /. 16.0) ~hi:(rate *. 16.0) stable
      in
      Printf.printf "critical rate: rho* in [%.4f, %.4f] txns/step\n" lo hi
    end
  in
  let rate_arg =
    Arg.(
      value
      & opt positive_float 0.3
      & info [ "rate" ] ~docv:"RHO" ~doc:"Injection rate (transactions per step).")
  in
  let burst_arg =
    Arg.(
      value
      & opt (int_at_least 1) 1
      & info [ "burst" ] ~docv:"B"
          ~doc:"Token-bucket burstiness: arrivals clump into batches of ~B.")
  in
  let dist_arg =
    Arg.(
      value
      & opt dist_conv Dtm_workload.Injection.Uniform_objects
      & info [ "dist" ] ~docv:"DIST"
          ~doc:"Object popularity: uniform, zipf:EXPONENT, or hot:PROB.")
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv (Dtm_online.Policy.Timestamp { preemption = true })
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Contention manager: timestamp, greedy-cm, nearest, random, \
             window-greedy, or backoff.")
  in
  let horizon_arg =
    Arg.(
      value
      & opt (int_at_least 1) 20_000
      & info [ "horizon" ] ~docv:"STEPS" ~doc:"Steps to simulate.")
  in
  let patience_arg =
    Arg.(
      value
      & opt (int_at_least 1) 50
      & info [ "patience" ] ~docv:"STEPS"
          ~doc:"Idle steps before the deadlock watchdog intervenes.")
  in
  let critical_arg =
    Arg.(
      value & flag
      & info [ "critical" ]
          ~doc:"Also binary-search the critical rate rho* for this policy.")
  in
  let shards_arg =
    Arg.(
      value
      & opt (int_at_least 1) 1
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Partition objects across S shards advanced in bulk-synchronous \
             rounds on the domain pool; 1 (the default) runs the unsharded \
             engine.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a continual-arrival open-system workload and judge stability.")
    Term.(
      const run $ topo_arg $ objects_k_arg $ seed_arg $ rate_arg
      $ burst_arg $ dist_arg $ policy_arg $ horizon_arg $ patience_arg
      $ critical_arg $ shards_arg $ jobs_arg)

let analyze_cmd =
  let module Analysis = Dtm_analysis in
  let run topo (w, k) seed workload scheduler inst_file sched_file json
      no_certificate codes jobs =
    apply_jobs jobs;
    if codes then begin
      print_endline "diagnostic codes (dtm analyze):";
      List.iter
        (fun c ->
          Printf.printf "  %s %-24s %-8s %s\n" (Analysis.Code.id c)
            (Analysis.Code.title c)
            (Analysis.Severity.to_string (Analysis.Code.default_severity c))
            (Analysis.Code.describe c))
        Analysis.Code.all;
      exit 0
    end;
    let topo =
      match topo with
      | Some t -> t
      | None ->
        prerr_endline "dtm analyze: a topology is required (or use --codes)";
        exit 124
    in
    let fail msg =
      prerr_endline msg;
      exit 124
    in
    let inst =
      match inst_file with
      | Some path -> (
        match Dtm_core.Serial.instance_of_string (read_file path) with
        | Ok i -> i
        | Error e -> fail ("cannot parse instance: " ^ e))
      | None -> make_instance topo ~w ~k ~seed ~workload
    in
    let metric = Topology.metric topo in
    (* A loaded schedule has an unknown producer, so no theorem bound
       applies; certificates are checked only for schedules we compute
       with the paper's per-topology algorithm. *)
    let sched_name, sched, certificate =
      match sched_file with
      | Some path -> (
        match Dtm_core.Serial.schedule_of_string (read_file path) with
        | Ok s -> (Some ("loaded from " ^ path), Some s, None)
        | Error e -> fail ("cannot parse schedule: " ^ e))
      | None -> (
        match scheduler with
        | `Auto ->
          let name = Dtm_sched.Auto.name topo in
          let s = Dtm_sched.Auto.schedule ~seed topo inst in
          let cert = Analysis.Certificate.make ~scheduler:name topo inst s in
          (Some name, Some s, if no_certificate then None else Some cert)
        | `Greedy ->
          (Some "basic greedy (Sec 2.3)", Some (Dtm_core.Greedy.schedule metric inst), None)
        | `Sequential ->
          (Some "sequential baseline", Some (Dtm_sched.Baseline.sequential metric inst), None)
        | `None -> (None, None, None))
    in
    let report = Analysis.Analyze.run ?schedule:sched ?certificate topo inst in
    if json then begin
      let extra =
        [ ("topology", Analysis.Json.String (Topology.to_string topo)) ]
        @ (match sched_name with
          | Some s -> [ ("scheduler", Analysis.Json.String s) ]
          | None -> [])
        @ (match sched with
          | Some s ->
            [ ("makespan", Analysis.Json.Int (Schedule.makespan s)) ]
          | None -> [])
        @
        match certificate with
        | Some c -> [ ("certificate", Analysis.Certificate.to_json c) ]
        | None -> []
      in
      print_endline (Analysis.Json.to_string (Analysis.Report.to_json ~extra report))
    end
    else begin
      Printf.printf "topology:  %s\n" (Topology.describe topo);
      (match sched_name with
      | Some s -> Printf.printf "scheduler: %s\n" s
      | None -> ());
      (match sched with
      | Some s -> Printf.printf "makespan:  %d\n" (Schedule.makespan s)
      | None -> ());
      (match certificate with
      | Some c -> Printf.printf "%s\n" (Analysis.Certificate.render c)
      | None -> ());
      print_string (Analysis.Report.render report)
    end;
    exit (Analysis.Report.exit_code report)
  in
  let topo_opt_arg =
    Arg.(
      value
      & opt (some topo_conv) None
      & info [ "t"; "topology" ] ~docv:"TOPO"
          ~doc:"Topology to analyze (see $(b,dtm topologies)).")
  in
  let scheduler_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("auto", `Auto);
               ("greedy", `Greedy);
               ("sequential", `Sequential);
               ("none", `None);
             ])
          `Auto
      & info [ "scheduler" ] ~docv:"ALGO"
          ~doc:
            "Scheduler whose output to analyze: auto (with certificate \
             check), greedy, sequential, or none (instance/topology lints \
             only).")
  in
  let inst_file_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "instance" ] ~docv:"FILE"
          ~doc:"Analyze this saved instance instead of generating one.")
  in
  let sched_file_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:"Analyze this saved schedule instead of computing one.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let no_cert_arg =
    Arg.(value & flag & info [ "no-certificate" ] ~doc:"Skip the certificate check.")
  in
  let codes_arg =
    Arg.(value & flag & info [ "codes" ] ~doc:"List all diagnostic codes and exit.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically analyze an instance and schedule: lints, feasibility \
          proof, and the scheduler's approximation certificate.  Exits \
          non-zero when any error-severity finding is reported.")
    Term.(
      const run $ topo_opt_arg $ objects_k_arg $ seed_arg $ workload_arg
      $ scheduler_arg $ inst_file_arg $ sched_file_arg $ json_arg $ no_cert_arg
      $ codes_arg $ jobs_arg)

let verify_cmd =
  let module Analysis = Dtm_analysis in
  let run topo (w, k) seed seeds workload capacity json codes jobs =
    apply_jobs jobs;
    if codes then begin
      print_endline "diagnostic codes (dtm verify):";
      List.iter
        (fun c ->
          Printf.printf "  %s %-24s %-8s %s\n" (Analysis.Code.id c)
            (Analysis.Code.title c)
            (Analysis.Severity.to_string (Analysis.Code.default_severity c))
            (Analysis.Code.describe c))
        Analysis.Code.all;
      exit 0
    end;
    let topo =
      match topo with
      | Some t -> t
      | None ->
        prerr_endline "dtm verify: a topology is required (or use --codes)";
        exit 124
    in
    if seeds < 1 then begin
      prerr_endline "dtm verify: --seeds must be >= 1";
      exit 124
    end;
    if capacity < 1 then begin
      prerr_endline "dtm verify: --capacity must be >= 1";
      exit 124
    end;
    let seed_list = List.init seeds (fun i -> seed + i) in
    (* One end-to-end audit per seed, fanned over the shared pool; the
       pool merges in submission order and each audit's passes merge in
       a fixed order, so the report is byte-identical for any -j. *)
    let outcomes =
      Dtm_util.Pool.run
        (fun seed ->
          let inst = make_instance topo ~w ~k ~seed ~workload in
          let sched = Dtm_sched.Auto.schedule ~seed topo inst in
          (seed, Analysis.Verify.run ~capacity topo inst sched))
        seed_list
    in
    let report =
      List.fold_left
        (fun acc (_, o) -> Analysis.Report.merge acc o.Analysis.Verify.report)
        Analysis.Report.empty outcomes
    in
    if json then begin
      let seed_json (s, o) =
        Analysis.Json.Obj
          [
            ("seed", Analysis.Json.Int s);
            ("makespan", Analysis.Json.Int o.Analysis.Verify.makespan);
            ("lower", Analysis.Json.Int o.Analysis.Verify.lower);
            ("replay_events", Analysis.Json.Int o.Analysis.Verify.replay_events);
            ( "congestion_makespan",
              Analysis.Json.Int o.Analysis.Verify.congestion_makespan );
            ( "congestion_events",
              Analysis.Json.Int o.Analysis.Verify.congestion_events );
            ( "optimum",
              match o.Analysis.Verify.optimum with
              | Some v -> Analysis.Json.Int v
              | None -> Analysis.Json.Null );
          ]
      in
      let extra =
        [
          ("topology", Analysis.Json.String (Topology.to_string topo));
          ("scheduler", Analysis.Json.String (Dtm_sched.Auto.name topo));
          ("capacity", Analysis.Json.Int capacity);
          ("seeds", Analysis.Json.List (List.map seed_json outcomes));
        ]
      in
      print_endline (Analysis.Json.to_string (Analysis.Report.to_json ~extra report))
    end
    else begin
      Printf.printf "topology:  %s\n" (Topology.describe topo);
      Printf.printf "scheduler: %s\n" (Dtm_sched.Auto.name topo);
      Printf.printf "workload:  %d objects, k = %d, seeds %d..%d\n" w k seed
        (seed + seeds - 1);
      Printf.printf "passes:    static, replay, congestion (cap %d), model\n"
        capacity;
      List.iter
        (fun (s, o) ->
          Printf.printf
            "seed %d: makespan=%d lower=%d ratio=%.2f replay_events=%d \
             congestion_makespan=%d congestion_events=%d optimum=%s\n"
            s o.Analysis.Verify.makespan o.Analysis.Verify.lower
            (Dtm_core.Lower_bound.ratio ~makespan:o.Analysis.Verify.makespan
               ~lower:o.Analysis.Verify.lower)
            o.Analysis.Verify.replay_events o.Analysis.Verify.congestion_makespan
            o.Analysis.Verify.congestion_events
            (match o.Analysis.Verify.optimum with
            | Some v -> string_of_int v
            | None -> "-"))
        outcomes;
      print_string (Analysis.Report.render report)
    end;
    exit (Analysis.Report.exit_code report)
  in
  let topo_opt_arg =
    Arg.(
      value
      & opt (some topo_conv) None
      & info [ "t"; "topology" ] ~docv:"TOPO"
          ~doc:"Topology to verify (see $(b,dtm topologies)).")
  in
  let seeds_arg =
    Arg.(
      value & opt int 1
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Number of consecutive seeds to audit, starting at --seed.")
  in
  let verify_capacity_arg =
    Arg.(
      value & opt (int_at_least 1) 1
      & info [ "capacity" ] ~docv:"C"
          ~doc:"Per-edge admission bound used by the congestion pass.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let codes_arg =
    Arg.(value & flag & info [ "codes" ] ~doc:"List all diagnostic codes and exit.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Audit the whole pipeline on generated workloads: static analysis, \
          a trace-linted replay, a trace-linted bounded-capacity congestion \
          run, and the small-scope model checker against the certified \
          lower bound.  Exits non-zero when any error-severity finding is \
          reported.")
    Term.(
      const run $ topo_opt_arg $ objects_k_arg $ seed_arg $ seeds_arg
      $ workload_arg $ verify_capacity_arg $ json_arg $ codes_arg $ jobs_arg)

let stm_cmd =
  let module I = Dtm_workload.Injection in
  let module Stm = Dtm_stm in
  let run topo (w, k) seed rate burst dist count domains seeds work_ns policies =
    let n = Topology.n topo in
    let metric = Topology.metric topo in
    let spec = { I.n; num_objects = w; k; rate; burst; dist; seed } in
    let seed_list = List.init (max 1 seeds) (fun i -> seed + i) in
    Printf.printf "topology:      %s\n" (Topology.describe topo);
    Printf.printf "injection:     %s\n" (I.describe spec);
    Printf.printf "workload:      %d txns per run, %d seeds\n" count seeds;
    Printf.printf "calibration:   %.2f ns per work unit, %.0f ns target per \
                   distance unit\n"
      (Stm.Calibrate.ns_per_unit ()) work_ns;
    (* Sim-vs-measured rank correlation, one row per policy. *)
    let row_domains = match domains with d :: _ -> d | [] -> 1 in
    print_newline ();
    Printf.printf "%-28s %14s %10s %12s\n" "policy" "corr(sim,wall)"
      "abort-rate" "mean-wall-ms";
    List.iter
      (fun policy ->
        let row =
          Stm.Validate.policy_row ~domains:row_domains ~work_target_ns:work_ns
            ~metric ~spec ~count ~seeds:seed_list policy
        in
        let mean_wall_ms =
          Array.fold_left
            (fun a s -> a +. (float_of_int s.Stm.Validate.wall_ns /. 1e6))
            0.0 row.Stm.Validate.samples
          /. float_of_int (max 1 (Array.length row.Stm.Validate.samples))
        in
        Printf.printf "%-28s %14.3f %10.3f %12.2f\n" row.Stm.Validate.cm_name
          row.Stm.Validate.correlation row.Stm.Validate.mean_abort_rate
          mean_wall_ms)
      policies;
    (* Scaling curve for the first policy over the domain list, plus the
       wall-clock-independent correctness verdicts CI keys on. *)
    (match policies with
    | [] -> ()
    | policy :: _ ->
      let work_scale = Stm.Calibrate.units_for ~target_ns:work_ns in
      let workload =
        Stm.Runtime.of_injection ~work_scale ~metric ~spec ~count ()
      in
      let cores = Domain.recommended_domain_count () in
      Printf.printf "\ncores:         %d detected%s\n" cores
        (if List.exists (fun d -> d > cores) domains then
           " (domain counts above this measure overhead, not scaling)"
         else "");
      Printf.printf "scaling (%s, fixed workload):\n"
        (Dtm_online.Policy.to_string policy);
      Printf.printf "%8s %10s %16s %10s %8s\n" "domains" "wall-ms"
        "throughput" "aborts" "speedup";
      let base = ref 0 in
      let all_ok = ref true in
      List.iter
        (fun d ->
          let rep, records =
            Stm.Runtime.run ~record:true ~cm:(Stm.Cm.of_policy policy)
              ~domains:d ~num_objects:w workload
          in
          if !base = 0 then base := rep.Stm.Runtime.wall_ns;
          let ok =
            Stm.Validate.conserved rep workload
            && Stm.Validate.log_serializable records
          in
          all_ok := !all_ok && ok;
          Printf.printf "%8d %10.2f %16.0f %10d %8.2f\n" d
            (float_of_int rep.Stm.Runtime.wall_ns /. 1e6)
            rep.Stm.Runtime.throughput rep.Stm.Runtime.aborts
            (float_of_int !base /. float_of_int rep.Stm.Runtime.wall_ns))
        domains;
      Printf.printf "\nverdict:       %s (conservation + serializability at \
                     every domain count)\n"
        (if !all_ok then "ok" else "FAILED");
      if not !all_ok then exit 1)
  in
  let rate_arg =
    Arg.(
      value
      & opt positive_float 0.5
      & info [ "rate" ] ~docv:"RHO" ~doc:"Injection rate (transactions per step).")
  in
  let burst_arg =
    Arg.(
      value
      & opt (int_at_least 1) 1
      & info [ "burst" ] ~docv:"B" ~doc:"Token-bucket burstiness.")
  in
  let dist_arg =
    Arg.(
      value
      & opt dist_conv I.Uniform_objects
      & info [ "dist" ] ~docv:"DIST"
          ~doc:"Object popularity: uniform, zipf:EXPONENT, or hot:PROB.")
  in
  let count_arg =
    Arg.(
      value
      & opt int 2000
      & info [ "count" ] ~docv:"N" ~doc:"Transactions to execute per run.")
  in
  let domains_arg =
    Arg.(
      value
      & opt (list (int_at_least 1)) [ 1; 4 ]
      & info [ "domains" ] ~docv:"D,D,..."
          ~doc:"Domain counts for the scaling curve (first is the baseline \
                and runs the correlation rows).")
  in
  let seeds_arg =
    Arg.(
      value
      & opt int 4
      & info [ "seeds" ] ~docv:"S"
          ~doc:"Seeds per correlation row (>= 2 for a defined rank \
                correlation).")
  in
  let work_ns_arg =
    Arg.(
      value
      & opt float 2000.0
      & info [ "work-ns" ] ~docv:"NS"
          ~doc:"Calibrated busy-work per simulated distance unit, in \
                nanoseconds.")
  in
  let policies_arg =
    Arg.(
      value
      & opt (list policy_conv)
          [
            Dtm_online.Policy.Timestamp { preemption = true };
            Dtm_online.Policy.Window_greedy { window = 16; seed = 1 };
            Dtm_online.Policy.Backoff { seed = 1; limit = 8 };
          ]
      & info [ "policies" ] ~docv:"P,P,..."
          ~doc:"Contention managers to compare: timestamp, greedy-cm, \
                nearest, random, window-greedy, backoff.")
  in
  Cmd.v
    (Cmd.info "stm"
       ~doc:
         "Execute injected workloads on the multicore STM runtime and \
          correlate simulated makespans with measured wall-clock.")
    Term.(
      const run $ topo_arg $ objects_k_arg $ seed_arg $ rate_arg
      $ burst_arg $ dist_arg $ count_arg $ domains_arg $ seeds_arg
      $ work_ns_arg $ policies_arg)

let topologies_cmd =
  let run () =
    print_endline "supported topologies (with example parameters):";
    List.iter
      (fun t -> Printf.printf "  %s\n" (Topology.describe t))
      Topology.all_examples
  in
  Cmd.v
    (Cmd.info "topologies" ~doc:"List supported topologies.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "dtm" ~version:"1.0.0"
      ~doc:"Provably fast schedulers for distributed transactional memory"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            schedule_cmd;
            lower_bound_cmd;
            validate_cmd;
            analyze_cmd;
            verify_cmd;
            online_cmd;
            serve_cmd;
            stm_cmd;
            topologies_cmd;
          ]))
