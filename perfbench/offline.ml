(* Workload "offline-batch": the paper's own pipeline on a seeded batch of
   Uniform instances — Auto.schedule, then Validator, Lower_bound.certified,
   Replay and Trace_lint on each schedule.

   The batch covers the seven topology families of the paper plus one
   power-law carrier just above the 1024-node materialization cutoff, so
   its metric is landmark-backed.  The power-law instances are sized to
   stay a minority of the batch's time. *)

module T = Dtm_topology.Topology
module Prng = Dtm_util.Prng

type family = {
  name : string;
  topo : T.t;
  objects : int;
  density : float;  (** share of nodes holding a transaction *)
  count : int;  (** instances per batch *)
}

let family ?(objects = 32) ?(density = 1.0) ?(count = 64) name topo =
  { name; topo; objects; density; count }

(* k = 2 objects per transaction throughout.  Many small instances: the
   walk bounds in Lower_bound grow exponentially with an object's
   requester count, so a few large instances would make the batch's cost
   swing with the seed. *)
let families =
  [
    family "clique" (T.Clique 64);
    family "line" (T.Line 64);
    family "ring" (T.Ring 64);
    family "grid" (T.Grid { rows = 8; cols = 8 });
    family "hypercube" (T.Hypercube { dim = 6 });
    family "cluster"
      (T.Cluster { Dtm_topology.Cluster.clusters = 8; size = 8; bridge_weight = 16 });
    family "star" (T.Star { Dtm_topology.Star.rays = 8; ray_len = 8 });
    family "powerlaw" ~objects:64 ~density:0.1 ~count:4
      (T.Power_law { Dtm_topology.Power_law.n = 1100; attach = 3; seed = 42 });
  ]

(* Auto.schedule sends the families without a scheduler of their own
   (here hypercube and powerlaw) to Diameter_sched with a fresh
   Topology.metric, so each of their scheduling calls also builds the
   family's metric: graph-layer work inside a sched span. *)
let rebuilds_metric (f : family) =
  match f.topo with
  | T.Clique _ | T.Line _ | T.Ring _ | T.Grid _ | T.Cluster _ | T.Star _ -> false
  | _ -> true

type topo_env = {
  topo : T.t;
  graph : Dtm_graph.Graph.t;
  metric : Dtm_graph.Metric.t;
  router : Dtm_sim.Router.t;
}

(* The library's set-up for one topology: graph, metric (flat, closed-form
   or landmark) and a routing cache warmed for every source. *)
let env_of topo =
  let graph = T.graph topo in
  let metric = T.metric topo in
  let router = Dtm_sim.Router.create graph in
  Dtm_sim.Router.warm_all router;
  { topo; graph; metric; router }

let build_envs () = List.map (fun (f : family) -> (f.name, env_of f.topo)) families

type instance = { id : int; family : string; inst : Dtm_core.Instance.t; seed : int }

let instances ?(scale = 1) seed =
  let rng = Prng.create ~seed in
  let id = ref 0 in
  List.concat_map
    (fun (f : family) ->
      List.init (max 1 (f.count / scale)) (fun _ ->
          let r = Prng.split rng in
          let inst =
            Dtm_workload.Uniform.instance ~rng:r ~n:(T.n f.topo) ~num_objects:f.objects
              ~k:2 ~density:f.density ()
          in
          incr id;
          { id = !id; family = f.name; inst; seed = Prng.int r 1_000_000 }))
    families

type outcome = {
  makespan : int;
  lower : int;
  feasible : bool;
  replay_ok : bool;
  lint_errors : int;
  hops : int;
}

let checks o =
  [
    ("offline: schedule feasible (Validator)", o.feasible);
    ("offline: replay clean", o.replay_ok);
    ("offline: no error-severity trace-lint finding", o.lint_errors = 0);
    ("offline: makespan >= certified lower bound", o.makespan >= o.lower);
  ]

(* Wraps one library call: (layer, call name, thunk). *)
type span = { call : 'a. string -> string -> (unit -> 'a) -> 'a }

(* Everything after scheduling: the checks' inputs for one schedule. *)
let audit ~span env i sched =
  let feasible =
    span.call "core" "Validator.is_feasible" (fun () ->
        Dtm_core.Validator.is_feasible env.metric i.inst sched)
  in
  let lower =
    span.call "core" "Lower_bound.certified" (fun () ->
        Dtm_core.Lower_bound.certified ~jobs:1 env.metric i.inst)
  in
  let rep =
    span.call "sim" "Replay.run" (fun () ->
        Dtm_sim.Replay.run ~router:env.router env.graph i.inst sched)
  in
  let findings =
    span.call "analysis" "Trace_lint.check" (fun () ->
        Dtm_analysis.Trace_lint.check ~graph:env.graph ~metric:env.metric i.inst
          ~commits:sched rep.Dtm_sim.Replay.trace)
  in
  {
    makespan = Dtm_core.Schedule.makespan sched;
    lower;
    feasible;
    replay_ok = rep.Dtm_sim.Replay.ok;
    lint_errors = List.length (List.filter Dtm_analysis.Diagnostic.is_error findings);
    hops = rep.Dtm_sim.Replay.hops;
  }

(* One instance through the pipeline.  [span] wraps each library call
   (identity in untraced runs). *)
let pipeline ~span env i =
  audit ~span env i
    (span.call "sched" "Auto.schedule" (fun () ->
         Dtm_sched.Auto.schedule ~seed:i.seed env.topo i.inst))

let untraced = { call = (fun _ _ f -> f ()) }

let batch envs insts =
  List.map (fun i -> (i, pipeline ~span:untraced (List.assoc i.family envs) i)) insts

(* Traced run ids: batch b, instance i -> b * stride + i; the batch's own
   span takes the last id of its block. *)
let stride = 100_000

let run ?scale (cfg : Measure.cfg) =
  Measure.env ~workload:"offline-batch" ~seed:cfg.Measure.seed ~domains:1
    ~rev:cfg.Measure.rev ();
  let insts = instances ?scale cfg.Measure.seed in
  let n_inst = List.length insts in
  let n_txns =
    List.fold_left (fun a i -> a + Dtm_core.Instance.num_txns i.inst) 0 insts
  in
  let setup_s, envs = Measure.median_time ~reps:5 build_envs in
  let reference = batch envs insts in
  let check_batch results =
    List.fold_left
      (fun bad ((i, o), (_, o_ref)) ->
        let ok =
          List.fold_left (fun ok (name, c) -> Measure.check name c && ok) true (checks o)
        in
        let same =
          Measure.check "offline: identical inputs give identical results" (o = o_ref)
        in
        if ok && same then bad
        else begin
          Printf.printf "note instance %d (%s) failed a check\n" i.id i.family;
          bad + 1
        end)
      0
      (List.combine results reference)
  in
  ignore (check_batch reference);
  Measure.metric "top_heap_mb" (Measure.top_heap_mb ());
  let seconds = if !Measure.traced then cfg.Measure.seconds /. 2.0 else cfg.Measure.seconds in
  let samples = Measure.timed ~seconds (fun () -> batch envs insts) in
  let failed = List.fold_left (fun a (_, r) -> a + check_batch r) 0 samples in
  Measure.metric "setup_s" setup_s;
  let wall =
    Measure.throughputs ~instances:n_inst
      ~what:(Printf.sprintf "batch of %d instances (%d transactions)" n_inst n_txns)
      (List.map (fun (w, _) -> (w, n_txns)) samples)
  in
  let ratios =
    List.map
      (fun (_, o) -> Dtm_core.Lower_bound.ratio ~makespan:o.makespan ~lower:o.lower)
      reference
  in
  Measure.info "ratio_gmean" "ratio" (Dtm_util.Stats.geometric_mean (Array.of_list ratios));
  Measure.info "ratio_max" "ratio" (List.fold_left Float.max 0.0 ratios);
  if !Measure.traced then begin
    let batch_id = ref 0 in
    let traced =
      Measure.timed ~seconds (fun () ->
          incr batch_id;
          let base = !batch_id * stride in
          Span.with_ ~run:(base + stride - 1) ~layer:"bench" "batch" (fun () ->
              List.map
                (fun i ->
                  let call layer name f = Span.with_ ~run:(base + i.id) ~layer name f in
                  (i, pipeline ~span:{ call } (List.assoc i.family envs) i))
                insts))
    in
    List.iter (fun (_, r) -> ignore (check_batch r)) traced;
    (* Reference: each family's metric built alone. *)
    let metric_s =
      List.map
        (fun (f : family) -> (f.name, fst (Measure.median_time ~reps:5 (fun () -> T.metric f.topo))))
        families
    in
    Measure.metric "graph.metric_build_s" (List.fold_left (fun a (_, x) -> a +. x) 0.0 metric_s);
    (* The metric build inside each Auto.schedule call, by family. *)
    let rebuild_s family =
      if rebuilds_metric (List.find (fun (f : family) -> f.name = family) families) then
        List.assoc family metric_s
      else 0.0
    in
    (* Per-call metrics, summed per batch from the library calls' spans. *)
    let family_of = Hashtbl.create n_inst in
    List.iter (fun i -> Hashtbl.replace family_of i.id i.family) insts;
    let per_batch = Hashtbl.create 64 in
    List.iter
      (fun (sp : Span.t) ->
        if sp.Span.layer <> "bench" then begin
          let family = Hashtbl.find family_of (sp.Span.run mod stride) in
          let d = sp.Span.t1 -. sp.Span.t0 in
          let keys, d =
            match sp.Span.name with
            | "Auto.schedule" -> ([ "sched." ^ family ^ "_s" ], d -. rebuild_s family)
            | "Lower_bound.certified" ->
              ([ "core.lower_bound_s"; "core.lower_bound." ^ family ^ "_s" ], d)
            | "Validator.is_feasible" -> ([ "core.validator_s" ], d)
            | "Replay.run" -> ([ "sim.replay_s" ], d)
            | "Trace_lint.check" -> ([ "analysis.trace_lint_s" ], d)
            | name -> invalid_arg ("offline: untimed call " ^ name)
          in
          let b = sp.Span.run / stride in
          let tbl =
            match Hashtbl.find_opt per_batch b with
            | Some t -> t
            | None ->
              let t = Hashtbl.create 32 in
              Hashtbl.replace per_batch b t;
              t
          in
          List.iter
            (fun key ->
              Hashtbl.replace tbl key (d +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key)))
            keys
        end)
      !Span.spans;
    let batches = Hashtbl.fold (fun _ t acc -> t :: acc) per_batch [] in
    let keys =
      List.sort_uniq compare
        (List.concat_map (fun t -> Hashtbl.fold (fun k _ a -> k :: a) t []) batches)
    in
    List.iter
      (fun key ->
        Measure.metric key
          (Measure.median
             (List.map (fun t -> Option.value ~default:0.0 (Hashtbl.find_opt t key)) batches)))
      keys;
    Measure.metric "sim.replay_hops"
      (float_of_int (List.fold_left (fun a (_, o) -> a + o.hops) 0 reference));
    Measure.report_gc ~txns:n_txns (Measure.gc_during (fun () -> batch envs insts));
    (* Auto.schedule spans two layers: the metric builds go to graph. *)
    let graph_s = List.fold_left (fun a i -> a +. rebuild_s i.family) 0.0 insts in
    Span.report ~group:(fun run -> run / stride)
      ~adjust:(fun tbl -> Span.move tbl ~src:"sched" ~dst:"graph" graph_s)
      ~untraced:wall ()
  end;
  (List.length samples * n_inst, failed)
