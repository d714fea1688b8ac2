type measurement = {
  makespan : int;
  lower : int;
  ratio : float;
  feasible : bool;
  clean : bool;
}

type audit = { graph : Dtm_graph.Graph.t }

let audit topo = { graph = Dtm_topology.Topology.graph topo }

let measure ?jobs ?audit metric inst sched =
  let makespan = Dtm_core.Schedule.makespan sched in
  let lower = Dtm_core.Lower_bound.certified ?jobs metric inst in
  (* Static gate: beyond the dynamic validator, every measurement is
     statically analyzed (instance + schedule lints); an error-severity
     finding marks the measurement unclean and fails the experiment's
     all-feasible flag. *)
  let report = Dtm_analysis.Analyze.quick metric inst sched in
  (* Trace gate: with an [audit], the schedule is additionally expanded
     into the canonical hop-by-hop trace (metric-routed, so a 4096-node
     sweep row costs no Dijkstra) and run through the DTM11x trace
     lints — motion continuity, hop legality, commit precedence, Cost
     agreement, conflict-serializability. *)
  let traced =
    match audit with
    | None -> true
    | Some { graph } ->
      let w = Dtm_sim.Replay.walk graph metric inst sched in
      w.Dtm_sim.Replay.ok
      && Dtm_analysis.Trace_lint.check ~graph ~metric inst ~commits:sched
           w.Dtm_sim.Replay.trace
         = []
  in
  {
    makespan;
    lower;
    ratio = Dtm_core.Lower_bound.ratio ~makespan ~lower;
    feasible = Dtm_core.Validator.is_feasible metric inst sched;
    clean = (not (Dtm_analysis.Report.has_errors report)) && traced;
  }

(* Seeds are embarrassingly parallel: each builds its own [Prng.t], so
   fanning them across domains changes nothing but wall-clock.  The
   pool merges in submission order, keeping every downstream fold
   (float means, table rows) byte-identical to a sequential run. *)
let sweep ~seeds ?audit ~gen ~metric ~sched () =
  Dtm_util.Pool.run
    (fun seed ->
      let rng = Dtm_util.Prng.create ~seed in
      let inst = gen rng in
      measure ?audit metric inst (sched inst))
    seeds

let summarize ms =
  let arr = Array.of_list (List.map (fun m -> m.ratio) ms) in
  let ok = List.for_all (fun m -> m.feasible && m.clean) ms in
  let _, worst = Dtm_util.Stats.min_max arr in
  (Dtm_util.Stats.mean arr, worst, ok)

let mean_ratio ~seeds ?audit ~gen ~metric ~sched () =
  summarize (sweep ~seeds ?audit ~gen ~metric ~sched ())

let fmt_ratio r = Printf.sprintf "%.2f" r
