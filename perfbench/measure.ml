(* Clock, statistics, environment stamp and result output shared by the
   workloads.

   A run prints human-readable lines first ("env", "metric", "note",
   "check") and, as its last line, one JSON object carrying exactly the
   metrics of its mode: the end-to-end list for an untraced run, the
   per-layer list for a traced one.  Both lists are fixed here so every
   workload reports the same names; a per-layer metric whose layer a
   workload bypasses reads 0. *)

let now = Unix.gettimeofday

(* What every workload is given: the input seed, the measuring time (the
   untraced timed loop runs this long; a traced run splits it between an
   untraced and a traced loop) and the git revision for the stamp. *)
type cfg = { seed : int; seconds : float; rev : string }

(* ---------- statistics ---------- *)

(* The library's statistics, over lists. *)
let median xs = Dtm_util.Stats.median (Array.of_list xs)

(* Linear-interpolation percentile, [p] in [0, 100]. *)
let percentile xs p = Dtm_util.Stats.percentile (Array.of_list xs) p

(* "median M s (quartiles Q1-Q3, max X) over N runs" for a list of walls. *)
let describe_walls walls =
  let q p = percentile walls p in
  Printf.sprintf "median %.4f s (quartiles %.4f-%.4f, max %.4f) over %d runs"
    (median walls) (q 25.0) (q 75.0) (q 100.0) (List.length walls)

(* ---------- timing loops ---------- *)

(* [median_time ~reps f] runs [f] (a set-up or a reference run) [reps]
   times and returns the median duration with the last result; the
   earlier results go to [discard] (e.g. a pool to shut down). *)
let median_time ?(discard = ignore) ~reps f =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    let t0 = now () in
    let r = f () in
    times := (now () -. t0) :: !times;
    Option.iter discard !last;
    last := Some r
  done;
  match !last with
  | Some r -> (median !times, r)
  | None -> invalid_arg "Measure.median_time: reps < 1"

(* [timed ~seconds f] calls [f] repeatedly until [seconds] of wall time
   have passed and at least 3 calls were made, and returns each call's
   duration with its result, in call order. *)
let timed ~seconds f =
  let start = now () in
  let acc = ref [] and n = ref 0 in
  while !n < 3 || now () -. start < seconds do
    let t0 = now () in
    let r = f () in
    acc := (now () -. t0, r) :: !acc;
    incr n
  done;
  List.rev !acc

(* ---------- GC ---------- *)

type gc = { minor_words : float; minor_collections : int; major_collections : int }

(* A minor collection is stop-the-world in OCaml 5, so forcing one first
   folds every domain's allocation counters into the sampled totals. *)
let gc_snapshot () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_delta a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
  }

(* The collector's work during one call of [f]. *)
let gc_during f =
  let a = gc_snapshot () in
  ignore (f ());
  gc_delta a (gc_snapshot ())

(* Largest major heap so far.  Workloads read it after set-up and the
   warm-up repetition, so it does not grow with the number of timed
   repetitions a machine manages. *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* ---------- metric lists ---------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("txns_per_s", "1/s");
    ("instances_per_s", "1/s");
    ("top_heap_mb", "MB");
  ]

let families =
  [ "clique"; "line"; "ring"; "grid"; "hypercube"; "cluster"; "star"; "powerlaw" ]

let layers =
  [ "workload"; "online"; "shard"; "stm"; "graph"; "sched"; "core"; "sim"; "analysis" ]

let per_layer =
  [
    ("workload.draw_s", "s");
    ("online.engine_s", "s");
    ("online.steps", "count");
    ("online.window_us_p50", "us");
    ("online.window_us_p99", "us");
    ("online.queue_mean", "count");
    ("online.queue_peak", "count");
    ("online.forced_grants", "count");
    ("online.preemptions", "count");
    ("online.travel", "count");
    ("gc.minor_words_per_txn", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("shard.overhead_s", "s");
    ("shard.rounds", "count");
    ("shard.round_us", "us");
    ("shard.alloc_ratio", "ratio");
    ("shard.speedup_2d", "ratio");
    ("stm.starts", "count");
    ("stm.aborts", "count");
    ("stm.commit_ratio", "ratio");
    ("stm.cm_abort_other", "count");
    ("stm.cm_abort_self", "count");
    ("stm.cm_wait", "count");
    ("stm.busy_share", "ratio");
    ("stm.speedup_2d", "ratio");
    ("stm.calibrate_s", "s");
    ("graph.metric_build_s", "s");
  ]
  @ List.map (fun f -> ("sched." ^ f ^ "_s", "s")) families
  @ [ ("core.lower_bound_s", "s") ]
  @ List.map (fun f -> ("core.lower_bound." ^ f ^ "_s", "s")) families
  @ [
      ("core.validator_s", "s");
      ("sim.replay_s", "s");
      ("sim.replay_hops", "count");
      ("analysis.trace_lint_s", "s");
    ]
  @ List.map (fun l -> ("self." ^ l ^ "_s", "s")) layers
  @ [
      ("trace.wall_s", "s");
      ("trace.untraced_wall_s", "s");
      ("trace.overhead_s", "s");
      ("trace.unaccounted_s", "s");
    ]

(* ---------- output ---------- *)

let traced = ref false
let recorded : (string, float) Hashtbl.t = Hashtbl.create 64

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> (
    match List.assoc_opt name per_layer with Some u -> u | None -> "")

(* [metric name v] prints and records a metric of either list. *)
let metric name v =
  if not (List.mem_assoc name end_to_end || List.mem_assoc name per_layer) then
    invalid_arg ("Measure.metric: undeclared metric " ^ name);
  Hashtbl.replace recorded name v;
  Printf.printf "metric %-30s %16.6f %s\n" name v (unit_of name)

(* [info name unit v] prints a reading that is not one of the declared
   metrics (workload-specific end-to-end figures such as latency
   percentiles and approximation ratios). *)
let info name unit_ v = Printf.printf "metric %-30s %16.6f %s\n" name v unit_

let note fmt = Printf.ksprintf (fun s -> print_endline ("note " ^ s)) fmt

(* The end-to-end throughputs of a timed loop: the work of every
   repetition over their total wall time.  [samples] are (wall,
   transactions committed) per repetition; a repetition is [instances]
   workload instances (a served stream, a Runtime.run call, a batch).
   Totals rather than a median of repetitions: the measuring machine's
   speed shifts in phases of tens of seconds, a run's total follows the
   share of time it spent in each phase, and a median jumps between them. *)
let throughputs ~what ~instances samples =
  let walls = List.map fst samples in
  let total = List.fold_left ( +. ) 0.0 walls in
  let txns = List.fold_left (fun a (_, n) -> a + n) 0 samples in
  metric "txns_per_s" (float_of_int txns /. total);
  metric "instances_per_s" (float_of_int (instances * List.length samples) /. total);
  note "timed wall per %s: %s" what (describe_walls walls);
  median walls

let report_gc ~txns d =
  metric "gc.minor_words_per_txn" (d.minor_words /. float_of_int txns);
  metric "gc.minor_collections" (float_of_int d.minor_collections);
  metric "gc.major_collections" (float_of_int d.major_collections)

(* Environment stamp, printed first by every run and kept for the spans
   file. *)
let env_json = ref "{}"

(* [domains] is what the timed repetitions use, [reference_domains] what
   the traced run's reference runs use. *)
let env ~workload ~seed ~domains ?(reference_domains = domains) ~rev () =
  let cores = Domain.recommended_domain_count () in
  env_json :=
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"cores\": %d, \"domains\": %d, \
       \"reference_domains\": %d, \"ocaml\": %S, \"rev\": %S, \"trace\": %b}"
      workload seed cores domains reference_domains Sys.ocaml_version rev !traced;
  print_endline ("env " ^ !env_json);
  if cores < reference_domains then
    note
      "%d domains on %d detected cores: a %d-domain reading measures overhead, \
       not scaling"
      reference_domains cores reference_domains

(* ---------- correctness checks ---------- *)

(* Outcome counts per named check, in first-seen order. *)
let checks : (string * (int ref * int ref)) list ref = ref []

let check name ok =
  let pass, fail =
    match List.assoc_opt name !checks with
    | Some c -> c
    | None ->
      let c = (ref 0, ref 0) in
      checks := !checks @ [ (name, c) ];
      c
  in
  incr (if ok then pass else fail);
  ok

let all_checks_passed () = List.for_all (fun (_, (_, f)) -> !f = 0) !checks

let print_checks () =
  List.iter
    (fun (name, (p, f)) ->
      if !f = 0 then Printf.printf "check %-44s ok (%d)\n" name !p
      else Printf.printf "check %-44s FAILED (%d of %d)\n" name !f (!p + !f))
    !checks

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

(* Prints the result line.  Every metric of the mode's list must have been
   recorded, except per-layer metrics of bypassed layers, which read 0. *)
let finish ~correct ~attempted ~failed =
  let names = if !traced then per_layer else end_to_end in
  let field (name, u) =
    let v =
      match Hashtbl.find_opt recorded name with
      | Some v -> v
      | None when !traced -> 0.0
      | None -> failwith ("Measure.finish: end-to-end metric not measured: " ^ name)
    in
    if not (Float.is_finite v) then
      failwith ("Measure.finish: non-finite value for " ^ name);
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) u
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map field names))
