(* Workload "stm-mixed": the live STM runtime (Runtime.run) under the
   greedy contention manager.

   Transactions touch k = 4 of 1024 objects drawn Zipf(0.8) by the
   injection generator, with a fixed [work_units] of busy-work each.  A
   seeded 75% are read-only (invisible reads plus validation); the rest
   read three objects and read-modify-write the fourth (the open-for-write
   CAS path).  Runtime.run issues each domain's next transaction only
   once its previous one has committed: a closed loop, one client per
   domain.

   The timed runs use one domain, so both commit paths are measured
   without the cross-core scheduling a virtual machine with stolen CPU
   time makes erratic: at 2 domains a run either overlaps its two shards
   or, when the new worker domain is late, runs both on the caller, and
   whole runs land in one mode or the other.  The 2-domain runs, where
   transactions really contend, are the traced run's reference: the
   stm.* contention counters, stm.speedup_2d and the serializability
   audit come from them. *)

module I = Dtm_workload.Injection
module R = Dtm_stm.Runtime
module Cm = Dtm_stm.Cm
module Validate = Dtm_stm.Validate

let domains = 1
let contended_domains = 2
let txns = 200_000
let num_objects = 1024
(* Calibrate.spin iterations per transaction: about 85 ns at the 2.65 ns
   per unit measured on a 2-vCPU Xeon virtual machine.  A constant, so the
   inputs depend only on the seed, and small, so the runtime's own read,
   validate and commit paths are most of the wall. *)
let work_units = 32
let greedy = Cm.of_policy (Dtm_online.Policy.Timestamp { preemption = true })

let specs ~txns ~work seed =
  let spec =
    {
      I.n = contended_domains;
      num_objects;
      k = 4;
      rate = 1.0;
      burst = 1;
      dist = I.Zipf_objects 0.8;
      seed;
    }
  in
  let src = I.source ~limit:txns spec in
  let rng = Dtm_util.Prng.create ~seed:(seed + 0x5eed) in
  Array.init txns (fun _ ->
      match Dtm_online.Stream.pull src with
      | None -> failwith "stm-mixed: injection source ended early"
      | Some t ->
        let objs = Array.of_list t.Dtm_online.Stream.objects in
        let read_only = Dtm_util.Prng.float rng 1.0 < 0.75 in
        {
          R.node = t.Dtm_online.Stream.node;
          reads = (if read_only then objs else Array.sub objs 1 (Array.length objs - 1));
          writes = (if read_only then [||] else [| objs.(0) |]);
          arrival = t.Dtm_online.Stream.arrival;
          work;
        })

(* Contention-manager decisions, counted per domain by wrapping the
   manager's public [resolve]; each domain registers its counters once. *)
type decisions = { mutable other : int; mutable self : int; mutable wait : int }

let registry = ref []
let registry_lock = Mutex.create ()

let counters =
  Domain.DLS.new_key (fun () ->
      let c = { other = 0; self = 0; wait = 0 } in
      Mutex.protect registry_lock (fun () -> registry := c :: !registry);
      c)

let counting (cm : Cm.t) =
  {
    cm with
    Cm.resolve =
      (fun ~self ~other ~attempt ->
        let d = cm.Cm.resolve ~self ~other ~attempt in
        let c = Domain.DLS.get counters in
        (match d with
        | Cm.Abort_other -> c.other <- c.other + 1
        | Cm.Abort_self -> c.self <- c.self + 1
        | Cm.Wait _ -> c.wait <- c.wait + 1);
        d);
  }

let decisions () =
  Mutex.protect registry_lock (fun () ->
      List.fold_left
        (fun (o, s, w) c -> (o + c.other, s + c.self, w + c.wait))
        (0, 0, 0) !registry)

let checks specs (rep : R.report) = [ ("stm: conservation", Validate.conserved rep specs) ]

let run ~txns (cfg : Measure.cfg) =
  Measure.env ~workload:"stm-mixed" ~seed:cfg.Measure.seed ~domains
    ~reference_domains:contended_domains ~rev:cfg.Measure.rev ();
  (* Set-up: the calibration, measured on its first (uncached) call, so
     once per process.  It converts the busy-work into nanoseconds for
     stm.busy_share. *)
  let t0 = Measure.now () in
  let ns_per_unit = Dtm_stm.Calibrate.ns_per_unit () in
  let calibrate_s = Measure.now () -. t0 in
  let specs = specs ~txns ~work:work_units cfg.Measure.seed in
  let go ?(cm = greedy) d = fst (R.run ~cm ~domains:d ~num_objects specs) in
  let check rep =
    List.fold_left (fun ok (name, c) -> Measure.check name c && ok) true (checks specs rep)
  in
  ignore (check (go domains));
  Measure.metric "top_heap_mb" (Measure.top_heap_mb ());
  let seconds = if !Measure.traced then cfg.Measure.seconds /. 2.0 else cfg.Measure.seconds in
  let samples = Measure.timed ~seconds (fun () -> go domains) in
  let failed =
    List.fold_left
      (fun acc (_, rep) ->
        if check rep then acc else acc + max 1 (abs (txns - rep.R.commits)))
      0 samples
  in
  (* One recorded run, outside the timing, for the serializability audit. *)
  let recorded, records =
    R.run ~record:true ~cm:greedy ~domains:contended_domains ~num_objects specs
  in
  ignore (check recorded);
  ignore (Measure.check "stm: recorded log serializable" (Validate.log_serializable records));
  Measure.metric "setup_s" calibrate_s;
  let wall =
    Measure.throughputs ~instances:1
      ~what:(Printf.sprintf "run of %d transactions" txns)
      (List.map (fun (w, r) -> (w, r.R.commits)) samples)
  in
  Measure.info "commits_per_s" "1/s" (Hashtbl.find Measure.recorded "txns_per_s");
  Measure.note "calibration: %.3f ns per work unit" ns_per_unit;
  if !Measure.traced then begin
    let traced =
      Measure.timed ~seconds (fun () ->
          let run = !Span.next_id in
          Span.with_ ~run ~layer:"bench" "iteration" (fun () ->
              Span.with_ ~run ~layer:"stm" "Runtime.run" (fun () -> go domains)))
    in
    List.iter (fun (_, rep) -> ignore (check rep)) traced;
    (* Reference: the same inputs on 2 domains, the manager's decisions
       counted. *)
    let o0, s0, w0 = decisions () in
    let cm = counting greedy in
    let contended = List.map (fun _ -> go ~cm contended_domains) [ 1; 2; 3 ] in
    List.iter (fun rep -> ignore (check rep)) contended;
    let o1, s1, w1 = decisions () in
    let per_run x = float_of_int x /. 3.0 in
    let med f = Measure.median (List.map f contended) in
    let busy_ns =
      Array.fold_left (fun a s -> a +. float_of_int s.R.work) 0.0 specs *. ns_per_unit
    in
    Measure.metric "stm.starts" (med (fun r -> float_of_int r.R.starts));
    Measure.metric "stm.aborts" (med (fun r -> float_of_int r.R.aborts));
    Measure.metric "stm.commit_ratio"
      (med (fun r -> float_of_int r.R.commits /. float_of_int r.R.starts));
    Measure.metric "stm.cm_abort_other" (per_run (o1 - o0));
    Measure.metric "stm.cm_abort_self" (per_run (s1 - s0));
    Measure.metric "stm.cm_wait" (per_run (w1 - w0));
    Measure.metric "stm.busy_share"
      (Measure.median (List.map (fun (_, r) -> busy_ns /. float_of_int r.R.wall_ns) samples));
    Measure.metric "stm.speedup_2d"
      (med (fun r -> r.R.throughput)
      /. Measure.median (List.map (fun (_, r) -> r.R.throughput) samples));
    Measure.metric "stm.calibrate_s" calibrate_s;
    Measure.report_gc ~txns (Measure.gc_during (fun () -> go domains));
    Span.report ~untraced:wall ()
  end;
  (List.length samples * txns, failed)
