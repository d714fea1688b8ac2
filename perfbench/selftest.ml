(* Self-test: every workload at a tiny size, untraced and traced, then each
   correctness check fed a corrupted copy of a real output to show that it
   fires.  Returns the exit code: 0 when every clean run passes and every
   check fires. *)

module O = Dtm_online.Open_system
module R = Dtm_stm.Runtime

let missed = ref []

(* [fires name outcomes] — [outcomes] are (check name, passed) pairs
   computed on corrupted outputs; [name] must have failed in one. *)
let fires name outcomes =
  let fired = List.exists (fun (n, ok) -> n = name && not ok) outcomes in
  Printf.printf "self-test %-52s %s\n" name (if fired then "fires" else "DID NOT FIRE");
  if not fired then missed := name :: !missed

let serve_checks () =
  let txns = 2000 in
  let spec = Serve.spec 7 in
  let metric = Dtm_topology.Topology.metric Serve.topology in
  let homes = Dtm_workload.Injection.homes spec in
  let violations = ref 0 in
  let r =
    Serve.serve ~probe:(Serve.probe ~violations ()) ~shards:1 ~txns ~metric ~homes spec
  in
  let clean = List.for_all snd (Serve.checks ~txns r) && !violations = 0 in
  Printf.printf "self-test %-52s %s\n" "serve: clean run passes" (if clean then "ok" else "FAILED");
  if not clean then missed := "serve: clean run" :: !missed;
  let corrupted =
    List.concat_map (Serve.checks ~txns)
      [
        { r with O.verdict = O.Diverging };
        { r with O.injected = r.O.injected - 1; committed = r.O.committed - 1 };
        { r with O.committed = r.O.committed - 1 };
        { r with O.committed = r.O.committed - 1; final_queue = 1 };
      ]
  in
  List.iter (fun (name, _) -> fires name corrupted) (Serve.checks ~txns r);
  fires "serve: identical inputs give an identical report"
    [
      ( "serve: identical inputs give an identical report",
        { r with O.latency_p99 = r.O.latency_p99 + 1 } = r );
    ];
  let violations = ref 0 in
  Serve.probe ~violations () ~step:1 ~injected:3 ~committed:1 ~queue:1;
  fires "serve: conservation at every probed step"
    [ ("serve: conservation at every probed step", !violations = 0) ]

let stm_checks () =
  let specs = Stm_mixed.specs ~txns:2000 ~work:Stm_mixed.work_units 7 in
  let rep, records =
    R.run ~record:true ~cm:Stm_mixed.greedy ~domains:Stm_mixed.contended_domains
      ~num_objects:Stm_mixed.num_objects specs
  in
  let clean =
    List.for_all snd (Stm_mixed.checks specs rep) && Dtm_stm.Validate.log_serializable records
  in
  Printf.printf "self-test %-52s %s\n" "stm: clean run passes" (if clean then "ok" else "FAILED");
  if not clean then missed := "stm: clean run" :: !missed;
  fires "stm: conservation"
    (List.concat_map (Stm_mixed.checks specs)
       [
         { rep with R.total_increments = rep.R.total_increments + 1 };
         { rep with R.commits = rep.R.commits - 1 };
       ]);
  (* A lost update: the last writer of some object claims a version its
     predecessor already created, breaking the version chain. *)
  let tampered = Array.copy records in
  let last_write =
    let i = ref (-1) in
    Array.iteri (fun j c -> if Array.length c.R.write_set > 0 then i := j) tampered;
    !i
  in
  let c = tampered.(last_write) in
  tampered.(last_write) <-
    { c with R.write_set = Array.map (fun (o, v) -> (o, v - 1)) c.R.write_set };
  fires "stm: recorded log serializable"
    [ ("stm: recorded log serializable", Dtm_stm.Validate.log_serializable tampered) ]

let offline_checks () =
  let topo = Dtm_topology.Topology.Line 8 in
  let env = Offline.env_of topo in
  let inst =
    Dtm_workload.Uniform.instance ~rng:(Dtm_util.Prng.create ~seed:7) ~n:8 ~num_objects:4
      ~k:2 ()
  in
  let i = { Offline.id = 1; family = "line"; inst; seed = 7 } in
  let o = Offline.pipeline ~span:Offline.untraced env i in
  let clean = List.for_all snd (Offline.checks o) in
  Printf.printf "self-test %-52s %s\n" "offline: clean instance passes"
    (if clean then "ok" else "FAILED");
  if not clean then missed := "offline: clean instance" :: !missed;
  (* Every transaction at step 1: objects cannot be in two places at once. *)
  let crowded = Dtm_core.Schedule.create ~n:8 in
  Array.iter
    (fun node -> Dtm_core.Schedule.set crowded ~node ~time:1)
    (Dtm_core.Instance.txn_nodes inst);
  let bad = Offline.audit ~span:Offline.untraced env i crowded in
  let corrupted = Offline.checks bad @ Offline.checks { o with Offline.lower = o.Offline.makespan + 1 } in
  List.iter (fun (name, _) -> fires name corrupted) (Offline.checks o)

let run () =
  (* Whole workloads at a tiny size, both modes. *)
  let cfg = { Measure.seed = 3; seconds = 0.05; rev = "self-test" } in
  let smoke name f =
    List.iter
      (fun traced ->
        Measure.traced := traced;
        Span.spans := [];
        let _, failed = f cfg in
        if failed <> 0 then missed := (name ^ " smoke run") :: !missed)
      [ false; true ]
  in
  smoke "serve" (Serve.run ~sharded:false ~txns:3000);
  smoke "serve-sharded" (Serve.run ~sharded:true ~txns:3000);
  smoke "stm-mixed" (Stm_mixed.run ~txns:3000);
  smoke "offline-batch" (Offline.run ~scale:6);
  Measure.print_checks ();
  if not (Measure.all_checks_passed ()) then missed := "smoke-run checks" :: !missed;
  serve_checks ();
  stm_checks ();
  offline_checks ();
  match !missed with
  | [] ->
    print_endline "self-test: every check passes on real outputs and fires on corrupted ones";
    0
  | l ->
    Printf.printf "self-test FAILED: %s\n" (String.concat "; " (List.rev l));
    1
