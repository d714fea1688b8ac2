(* The executable STM runtime, property-checked:

     - conservation: starts = commits + aborts, every transaction
       commits exactly once, and the summed final object values equal
       the summed write-set sizes (zero lost commits) — across domain
       counts and every contention manager,
     - serializability: each committed run's version history is a
       conflict-serializable order — checked structurally (every
       object's write versions are a gap-free 1..k chain and the
       reads-from/version-order graph is acyclic) and through the
       existing DTM115 trace lint on a synthetic one-txn-per-node
       instance,
     - the acceptance-scale run: 10^5 transactions across 8 domains
       with zero lost commits,
     - equivalence: at one domain the runtime's counters and commit
       records equal those of a transcription of the original
       tuple-based commit path (kept here as the reference),
     - allocation: a committed transaction allocates a bounded number
       of minor words (its descriptor and its write locators),
     - the input contract: the exact [Invalid_argument] messages,
     - contention-manager algebra: symmetric verdicts, age monotony,
       backoff delay ranges,
     - Spearman rank correlation (the validation harness's metric). *)

module Policy = Dtm_online.Policy
module Prng = Dtm_util.Prng
module Stats = Dtm_util.Stats
module Injection = Dtm_workload.Injection
module Desc = Dtm_stm.Desc
module Tvar = Dtm_stm.Tvar
module Cm = Dtm_stm.Cm
module Runtime = Dtm_stm.Runtime
module Validate = Dtm_stm.Validate

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let seed_gen = QCheck.int_range 0 1_000_000

let policies =
  [
    Policy.Timestamp { preemption = true };
    Policy.Timestamp { preemption = false };
    Policy.Window_greedy { window = 8; seed = 3 };
    Policy.Backoff { seed = 11; limit = 6 };
    Policy.Random_grant 7;
    Policy.Nearest;
  ]

(* Seed-derived random workload: a handful of nodes, few objects (so
   conflicts actually happen), mixed read/write sets.  Read sets may be
   empty and may overlap the write set; [min_writes = 0] also allows
   read-only transactions. *)
let random_workload ?(min_writes = 1) ~seed () =
  let rng = Prng.create ~seed in
  let range lo hi = Prng.int_in_range rng ~lo ~hi in
  let txns = range 5 60 in
  let num_objects = range 2 10 in
  let distinct k =
    let k = min k num_objects in
    let rec draw acc k =
      if k = 0 then acc
      else
        let o = range 0 (num_objects - 1) in
        if List.mem o acc then draw acc k else draw (o :: acc) (k - 1)
    in
    Array.of_list (draw [] k)
  in
  let specs =
    Array.init txns (fun _ ->
        {
          Runtime.node = range 0 7;
          writes = distinct (range min_writes 3);
          reads = distinct (range 0 2);
          arrival = range 1 20;
          work = range 0 200;
        })
  in
  (num_objects, specs)

(* Structural serializability lives in Validate (shared with the CLI
   verdict); here we alias it and cross-check against DTM115 below. *)
let serializable = Validate.log_serializable

(* ----- DTM115: feed the committed order through the trace lint ----- *)

let dtm115_ok ~num_objects records =
  let with_writes =
    Array.of_list
      (List.filter
         (fun (r : Runtime.commit_record) -> Array.length r.Runtime.write_set > 0)
         (Array.to_list records))
  in
  let n = Array.length with_writes in
  if n = 0 then true
  else begin
    (* Synthetic instance: committed transaction i lives at node i of a
       line; commit step = 2 + seq keeps every time distinct and >= 1. *)
    let txns =
      Array.to_list
        (Array.mapi
           (fun i (r : Runtime.commit_record) ->
             (i, Array.to_list (Array.map fst r.Runtime.write_set)))
           with_writes)
    in
    let inst =
      Dtm_core.Instance.create ~n ~num_objects ~txns
        ~home:(Array.make num_objects 0)
    in
    let commits =
      Dtm_core.Schedule.of_times (List.init n (fun i -> (i, 2 + i))) ~n
    in
    let graph = Dtm_topology.Line.graph n in
    let metric = Dtm_topology.Line.oracle n in
    let findings =
      Dtm_analysis.Trace_lint.check ~graph ~metric inst ~commits
        (Dtm_sim.Trace.of_events [])
    in
    not
      (List.exists
         (fun d ->
           d.Dtm_analysis.Diagnostic.code = Dtm_analysis.Code.Trace_unserializable)
         findings)
  end

(* ----- reference: the tuple-based commit path ----- *)

(* A transcription of the runtime's original commit path, one domain
   only: each read records a [(tvar, version)] pair, [open_write] is a
   recursive closure over a boxed attempt counter, and validation folds
   over the recorded pairs.  The equivalence property below holds the
   allocation-free runtime to exactly these counters and records. *)
module Reference = struct
  exception Abort_now

  let wait_unit = 64

  let stable (l : Tvar.locator) =
    match Desc.status l.Tvar.owner with
    | Desc.Committed -> (l.Tvar.old_version + 1, l.Tvar.new_value)
    | Desc.Active | Desc.Aborted -> (l.Tvar.old_version, l.Tvar.old_value)

  let read (tv : Tvar.t) = stable (Atomic.get tv.Tvar.loc)

  let open_write (cm : Cm.t) (desc : Desc.t) (tv : Tvar.t) =
    let attempt = ref 0 in
    let rec loop () =
      if not (Desc.is_active desc) then raise Abort_now;
      let l = Atomic.get tv.Tvar.loc in
      if l.Tvar.owner == desc then l.Tvar.old_version
      else
        match Desc.status l.Tvar.owner with
        | Desc.Active -> (
          match
            cm.Cm.resolve ~self:desc ~other:l.Tvar.owner ~attempt:!attempt
          with
          | Cm.Abort_other ->
            ignore (Desc.try_abort l.Tvar.owner);
            incr attempt;
            loop ()
          | Cm.Abort_self ->
            ignore (Desc.try_abort desc);
            raise Abort_now
          | Cm.Wait units ->
            Dtm_stm.Calibrate.spin (units * wait_unit);
            incr attempt;
            loop ())
        | Desc.Committed | Desc.Aborted ->
          let ver, value = stable l in
          let nl =
            {
              Tvar.owner = desc;
              old_version = ver;
              old_value = value;
              new_value = value + 1;
            }
          in
          if Atomic.compare_and_set tv.Tvar.loc l nl then ver else loop ()
    in
    loop ()

  let reads_valid (desc : Desc.t) reads =
    Array.for_all
      (fun ((tv : Tvar.t), v) ->
        let l = Atomic.get tv.Tvar.loc in
        if l.Tvar.owner == desc then l.Tvar.old_version = v
        else
          match Desc.status l.Tvar.owner with
          | Desc.Active -> false
          | Desc.Committed | Desc.Aborted -> fst (stable l) = v)
      reads

  (* [(starts, commits, aborts, total_increments)] and the commit
     records in [seq] order. *)
  let run ~cm ~num_objects (specs : Runtime.txn_spec array) =
    let tvars = Array.init num_objects (fun id -> Tvar.create ~id 0) in
    let starts = ref 0 and commits = ref 0 and aborts = ref 0 in
    let records = ref [] in
    Array.iteri
      (fun tid (spec : Runtime.txn_spec) ->
        let committed = ref false in
        while not !committed do
          incr starts;
          let desc = Desc.make ~tid ~birth:spec.Runtime.arrival in
          match
            let reads =
              Array.map
                (fun o ->
                  let tv = tvars.(o) in
                  (tv, fst (read tv)))
                spec.Runtime.reads
            in
            Dtm_stm.Calibrate.spin spec.Runtime.work;
            let writes =
              Array.map
                (fun o ->
                  let tv = tvars.(o) in
                  (tv, open_write cm desc tv))
                spec.Runtime.writes
            in
            if not (reads_valid desc reads) then begin
              ignore (Desc.try_abort desc);
              raise Abort_now
            end;
            if not (Desc.try_commit desc) then raise Abort_now;
            (reads, writes)
          with
          | reads, writes ->
            committed := true;
            let seq = !commits in
            incr commits;
            records :=
              {
                Runtime.tid;
                seq;
                read_set =
                  Array.map (fun ((tv : Tvar.t), v) -> (tv.Tvar.id, v)) reads;
                write_set =
                  Array.map
                    (fun ((tv : Tvar.t), v) -> (tv.Tvar.id, v + 1))
                    writes;
              }
              :: !records
          | exception Abort_now -> incr aborts
        done)
      specs;
    let total = Array.fold_left (fun a tv -> a + snd (read tv)) 0 tvars in
    ((!starts, !commits, !aborts, total), Array.of_list (List.rev !records))
end

(* ----- unit tests ----- *)

let test_tvar_basics () =
  let tv = Tvar.create ~id:0 42 in
  Alcotest.(check (pair int int)) "initial" (0, 42) (Tvar.version tv, Tvar.value tv);
  let d = Desc.make ~tid:0 ~birth:1 in
  Alcotest.(check bool) "active" true (Desc.is_active d);
  Alcotest.(check bool) "commit" true (Desc.try_commit d);
  Alcotest.(check bool) "re-abort fails" false (Desc.try_abort d)

let test_sequential_counter () =
  let specs =
    Array.init 100 (fun i ->
        {
          Runtime.node = 0;
          reads = [||];
          writes = [| 0 |];
          arrival = 1 + i;
          work = 0;
        })
  in
  let rep, records = Runtime.run ~record:true ~domains:1 ~num_objects:1 specs in
  Alcotest.(check int) "commits" 100 rep.Runtime.commits;
  Alcotest.(check int) "aborts" 0 rep.Runtime.aborts;
  Alcotest.(check int) "final value" 100 rep.Runtime.total_increments;
  Alcotest.(check bool) "conserved" true (Validate.conserved rep specs);
  Alcotest.(check int) "records" 100 (Array.length records);
  Array.iteri
    (fun i r -> Alcotest.(check int) "seq dense" i r.Runtime.seq)
    records;
  Alcotest.(check bool) "serializable" true (serializable records);
  Alcotest.(check bool) "dtm115" true (dtm115_ok ~num_objects:1 records)

(* The input contract: [Runtime.run] rejects malformed workloads with
   these exact messages before any transaction runs. *)
let test_input_contract () =
  let spec ?(reads = [||]) ?(writes = [| 0 |]) ?(arrival = 1) ?(work = 0) () =
    { Runtime.node = 0; reads; writes; arrival; work }
  in
  let rejects name ?(domains = 1) ?(num_objects = 4) specs msg =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Runtime.run ~domains ~num_objects specs))
  in
  rejects "read out of range"
    [| spec (); spec ~reads:[| 1; 4 |] () |]
    "Runtime.run: txn 1: object 4 out of range";
  rejects "negative read"
    [| spec ~reads:[| -1 |] () |]
    "Runtime.run: txn 0: object -1 out of range";
  rejects "write out of range"
    [| spec (); spec (); spec ~writes:[| 2; 7 |] () |]
    "Runtime.run: txn 2: object 7 out of range";
  rejects "duplicate write"
    [| spec ~writes:[| 3; 1; 3 |] () |]
    "Runtime.run: txn 0: duplicate write object 3";
  rejects "arrival < 1" [| spec ~arrival:0 () |] "Runtime.run: arrival < 1";
  rejects "negative work" [| spec ~work:(-1) () |] "Runtime.run: negative work";
  rejects "domains < 1" ~domains:0 [| spec () |] "Runtime.run: domains < 1";
  rejects "num_objects < 1" ~num_objects:0 [||] "Runtime.run: num_objects < 1"

(* A committed transaction allocates its descriptor (one per attempt)
   and one locator per write, nothing else: about 7 words on this mix
   of 75% read-only and 25% read-modify-write transactions.  The
   tuple-per-read path it replaced took about 85. *)
let test_commit_allocation () =
  let rng = Prng.create ~seed:2024 in
  let num_objects = 1024 and txns = 100_000 in
  let specs =
    Array.init txns (fun i ->
        let o = Array.init 4 (fun j -> ((i * 4) + j + Prng.int rng 64) mod num_objects) in
        let read_only = Prng.int rng 4 > 0 in
        {
          Runtime.node = 0;
          reads = (if read_only then o else Array.sub o 1 3);
          writes = (if read_only then [||] else [| o.(0) |]);
          arrival = 1 + i;
          work = 0;
        })
  in
  (* Warm-up: the first run pays the busy-work calibration. *)
  ignore (Runtime.run ~domains:1 ~num_objects specs);
  let before = Gc.minor_words () in
  let rep, _ = Runtime.run ~domains:1 ~num_objects specs in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all commit" txns rep.Runtime.commits;
  let per_txn = words /. float_of_int rep.Runtime.commits in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per committed txn %.1f <= 16" per_txn)
    true (per_txn <= 16.0)

let test_cm_algebra () =
  let a = Desc.make ~tid:0 ~birth:1 and b = Desc.make ~tid:1 ~birth:5 in
  let greedy = Cm.of_policy (Policy.Timestamp { preemption = true }) in
  (match greedy.Cm.resolve ~self:a ~other:b ~attempt:0 with
  | Cm.Abort_other -> ()
  | _ -> Alcotest.fail "older self must win");
  (match greedy.Cm.resolve ~self:b ~other:a ~attempt:0 with
  | Cm.Abort_self -> ()
  | _ -> Alcotest.fail "younger self must lose");
  let random = Cm.of_policy (Policy.Random_grant 3) in
  let verdict ~self ~other =
    match random.Cm.resolve ~self ~other ~attempt:0 with
    | Cm.Abort_other -> `Win
    | Cm.Abort_self -> `Lose
    | Cm.Wait _ -> `Wait
  in
  (match (verdict ~self:a ~other:b, verdict ~self:b ~other:a) with
  | `Win, `Lose | `Lose, `Win -> ()
  | _ -> Alcotest.fail "random verdicts must be antisymmetric");
  let bo = Cm.of_policy (Policy.Backoff { seed = 1; limit = 4 }) in
  for attempt = 0 to 3 do
    match bo.Cm.resolve ~self:a ~other:b ~attempt with
    | Cm.Wait d ->
      if d < 1 || d > 1 lsl attempt then
        Alcotest.failf "backoff delay %d out of range at attempt %d" d attempt
    | _ -> Alcotest.fail "backoff must wait below its limit"
  done;
  match bo.Cm.resolve ~self:a ~other:b ~attempt:4 with
  | Cm.Abort_other -> ()
  | _ -> Alcotest.fail "backoff must claim after limit"

let test_backoff_delay_range () =
  for attempt = 0 to 12 do
    let d = Policy.backoff_delay ~seed:9 ~id:17 ~attempt ~limit:8 in
    let cap = 1 lsl min attempt 8 in
    if d < 1 || d > cap then
      Alcotest.failf "delay %d outside [1, %d]" d cap
  done

let test_spearman () =
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "identity" 1.0 (Stats.spearman x x);
  Alcotest.(check (float 1e-9))
    "reversal" (-1.0)
    (Stats.spearman x [| 9.0; 7.0; 5.0; 3.0 |]);
  Alcotest.(check (float 1e-9))
    "constant side" 0.0
    (Stats.spearman x [| 2.0; 2.0; 2.0; 2.0 |]);
  (* Monotone but nonlinear is still rank-perfect. *)
  Alcotest.(check (float 1e-9))
    "monotone" 1.0
    (Stats.spearman x [| 1.0; 10.0; 100.0; 1000.0 |])

(* ----- properties ----- *)

let prop_conservation =
  qtest ~count:25 "conservation across domains and managers" seed_gen
    (fun seed ->
      let num_objects, specs = random_workload ~seed () in
      List.for_all
        (fun policy ->
          List.for_all
            (fun domains ->
              let rep, _ =
                Runtime.run ~cm:(Cm.of_policy policy) ~domains ~num_objects
                  specs
              in
              Validate.conserved rep specs)
            [ 1; 2; 4 ])
        policies)

let prop_serializable =
  qtest ~count:25 "committed runs are serializable (structural + DTM115)"
    seed_gen (fun seed ->
      let num_objects, specs = random_workload ~seed () in
      List.for_all
        (fun policy ->
          let _, records =
            Runtime.run ~record:true ~cm:(Cm.of_policy policy) ~domains:4
              ~num_objects specs
          in
          serializable records && dtm115_ok ~num_objects records)
        policies)

(* At one domain the run is sequential, so the runtime and the reference
   must agree exactly: counters, final values and every commit record. *)
let prop_matches_reference =
  qtest ~count:40 "one domain matches the tuple-based reference" seed_gen
    (fun seed ->
      let num_objects, specs = random_workload ~min_writes:0 ~seed () in
      List.for_all
        (fun policy ->
          let cm = Cm.of_policy policy in
          let rep, records =
            Runtime.run ~record:true ~cm ~domains:1 ~num_objects specs
          in
          let counts, ref_records = Reference.run ~cm ~num_objects specs in
          counts
          = ( rep.Runtime.starts,
              rep.Runtime.commits,
              rep.Runtime.aborts,
              rep.Runtime.total_increments )
          && records = ref_records)
        policies)

(* The acceptance-scale run: 10^5 transactions, 8 domains, low
   contention, zero lost commits, serializable commit log. *)
let test_hundred_k_eight_domains () =
  let rng = Prng.create ~seed:42 in
  let num_objects = 4096 in
  let specs =
    Array.init 100_000 (fun i ->
        let o1 = Prng.int_in_range rng ~lo:0 ~hi:(num_objects - 1) in
        let o2 = Prng.int_in_range rng ~lo:0 ~hi:(num_objects - 1) in
        {
          Runtime.node = i land 255;
          reads = [||];
          writes = (if o1 = o2 then [| o1 |] else [| o1; o2 |]);
          arrival = 1 + (i / 64);
          work = 0;
        })
  in
  let rep, records =
    Runtime.run ~record:true
      ~cm:(Cm.of_policy (Policy.Timestamp { preemption = true }))
      ~domains:8 ~num_objects specs
  in
  Alcotest.(check int) "all commit" 100_000 rep.Runtime.commits;
  Alcotest.(check bool) "conserved" true (Validate.conserved rep specs);
  Alcotest.(check bool) "serializable" true (serializable records)

let test_validation_harness () =
  let spec =
    {
      Injection.n = 32;
      num_objects = 16;
      k = 2;
      rate = 0.5;
      burst = 1;
      dist = Injection.Uniform_objects;
      seed = 1;
    }
  in
  let metric = Dtm_topology.Clique.metric 32 in
  let row =
    Validate.policy_row ~domains:2 ~work_target_ns:200.0 ~metric ~spec
      ~count:200 ~seeds:[ 1; 2; 3; 4 ]
      (Policy.Timestamp { preemption = true })
  in
  Alcotest.(check int) "four samples" 4 (Array.length row.Validate.samples);
  Array.iter
    (fun s ->
      Alcotest.(check int) "sample commits" 200 s.Validate.commits;
      Alcotest.(check bool) "sim ran" true (s.Validate.sim_makespan > 0))
    row.Validate.samples;
  Alcotest.(check bool) "correlation in range" true
    (row.Validate.correlation >= -1.0 && row.Validate.correlation <= 1.0);
  let curve =
    Validate.speedup_curve ~work_target_ns:200.0 ~metric ~spec ~count:200
      ~domains_list:[ 1; 2 ]
      (Policy.Timestamp { preemption = true })
  in
  (match curve with
  | [ one; two ] ->
    Alcotest.(check int) "first point" 1 one.Validate.p_domains;
    Alcotest.(check (float 1e-9)) "baseline speedup" 1.0 one.Validate.p_speedup;
    Alcotest.(check bool) "positive speedup" true (two.Validate.p_speedup > 0.0)
  | _ -> Alcotest.fail "two points expected");
  ignore
    (Validate.sim_makespan ~policy:(Policy.Backoff { seed = 2; limit = 5 })
       ~metric ~spec ~count:50 ())

let test_of_injection () =
  let spec =
    {
      Injection.n = 16;
      num_objects = 8;
      k = 2;
      rate = 1.0;
      burst = 1;
      dist = Injection.Uniform_objects;
      seed = 5;
    }
  in
  let metric = Dtm_topology.Line.metric 16 in
  let w = Runtime.of_injection ~work_scale:3 ~metric ~spec ~count:64 () in
  Alcotest.(check int) "count" 64 (Array.length w);
  Array.iter
    (fun s ->
      Alcotest.(check bool) "arrival >= 1" true (s.Runtime.arrival >= 1);
      Alcotest.(check bool) "work positive" true (s.Runtime.work >= 3);
      Alcotest.(check int) "all-write" 0 (Array.length s.Runtime.reads))
    w;
  (* Same spec, same draw: materializing twice replays identically. *)
  let w' = Runtime.of_injection ~work_scale:3 ~metric ~spec ~count:64 () in
  Alcotest.(check bool) "replay" true (w = w')

let () =
  Alcotest.run "dtm_stm"
    [
      ( "stm",
        [
          Alcotest.test_case "tvar+desc basics" `Quick test_tvar_basics;
          Alcotest.test_case "sequential counter" `Quick test_sequential_counter;
          Alcotest.test_case "cm algebra" `Quick test_cm_algebra;
          Alcotest.test_case "backoff delay range" `Quick
            test_backoff_delay_range;
          Alcotest.test_case "spearman" `Quick test_spearman;
          prop_conservation;
          prop_serializable;
          Alcotest.test_case "1e5 txns on 8 domains" `Slow
            test_hundred_k_eight_domains;
          Alcotest.test_case "validation harness" `Slow test_validation_harness;
          Alcotest.test_case "of_injection" `Quick test_of_injection;
          Alcotest.test_case "input contract" `Quick test_input_contract;
          Alcotest.test_case "commit allocation" `Quick test_commit_allocation;
          prop_matches_reference;
        ] );
    ]
