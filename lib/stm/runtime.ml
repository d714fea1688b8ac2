module Pool = Dtm_util.Pool

type txn_spec = {
  node : int;
  reads : int array;
  writes : int array;
  arrival : int;
  work : int;
}

type commit_record = {
  tid : int;
  seq : int;
  read_set : (int * int) array;
  write_set : (int * int) array;
}

type report = {
  domains : int;
  starts : int;
  commits : int;
  aborts : int;
  wall_ns : int;
  throughput : float;
  abort_rate : float;
  total_increments : int;
}

exception Abort_now

(* One [Wait 1] from the contention manager costs this many spin
   iterations — roughly tens of nanoseconds, so exponential backoff
   spans a useful range before the manager escalates. *)
let wait_unit = 64

(* Acquire [tv] for writing on behalf of [desc]; returns the stable
   version observed at acquisition (our write creates version + 1).
   Obstruction-free: a conflicting Active owner is arbitrated by the
   contention manager; everything else is a CAS retry.  A loop over
   local refs, not a recursive closure, so the refs stay unboxed and
   the only allocation is the locator each CAS offers. *)
let open_write (cm : Cm.t) (desc : Desc.t) (tv : Tvar.t) =
  let attempt = ref 0 in
  (* Versions are >= 0, so -1 means "not acquired yet". *)
  let acquired = ref (-1) in
  while !acquired < 0 do
    if not (Desc.is_active desc) then raise_notrace Abort_now;
    let l = Atomic.get tv.Tvar.loc in
    if l.Tvar.owner == desc then acquired := l.Tvar.old_version
    else
      match Desc.status l.Tvar.owner with
      | Desc.Active -> (
        match cm.Cm.resolve ~self:desc ~other:l.Tvar.owner ~attempt:!attempt with
        | Cm.Abort_other ->
          ignore (Desc.try_abort l.Tvar.owner);
          incr attempt
        | Cm.Abort_self ->
          ignore (Desc.try_abort desc);
          raise_notrace Abort_now
        | Cm.Wait units ->
          Calibrate.spin (units * wait_unit);
          incr attempt)
      | Desc.Committed | Desc.Aborted ->
        (* A resolved owner never changes status again, so the two
           projections agree. *)
        let ver = Tvar.stable_version l in
        let value = Tvar.stable_value l in
        let nl =
          {
            Tvar.owner = desc;
            old_version = ver;
            old_value = value;
            new_value = value + 1;
          }
        in
        if Atomic.compare_and_set tv.Tvar.loc l nl then acquired := ver
  done;
  !acquired

(* Read [j] of [reads] (version [versions.(j)] observed) is still valid
   iff the object's locator is ours at the same version, or
   foreign-but-resolved and still resolving to that version.  A foreign
   *Active* owner fails the read even though the stable value has not
   changed yet: acquisition precedes validation inside every
   transaction, so treating acquisition as invalidation closes the
   window between our validation and our commit CAS (see runtime.mli). *)
let reads_valid (desc : Desc.t) (tvars : Tvar.t array) reads versions =
  let valid = ref true and j = ref 0 in
  while !valid && !j < Array.length reads do
    let l = Atomic.get tvars.(reads.(!j)).Tvar.loc in
    let v = versions.(!j) in
    (valid :=
       if l.Tvar.owner == desc then l.Tvar.old_version = v
       else
         match Desc.status l.Tvar.owner with
         | Desc.Active -> false
         | Desc.Committed | Desc.Aborted -> Tvar.stable_version l = v);
    incr j
  done;
  !valid

(* Per-shard counters plus the scratch the commit path writes instead of
   allocating: the versions observed by the current attempt's reads and
   acquired by its writes, indexed like [spec.reads] / [spec.writes].
   Each shard runs one transaction at a time, so one pair suffices; it
   grows to the largest read and write set the shard meets. *)
type shard_acc = {
  mutable s_starts : int;
  mutable s_commits : int;
  mutable s_aborts : int;
  mutable s_records : commit_record list;
  mutable read_versions : int array;
  mutable write_versions : int array;
}

let run_txn ~cm ~(tvars : Tvar.t array) ~commit_seq ~record ~tid spec acc =
  let reads = spec.reads and writes = spec.writes in
  if Array.length acc.read_versions < Array.length reads then
    acc.read_versions <- Array.make (Array.length reads) 0;
  if Array.length acc.write_versions < Array.length writes then
    acc.write_versions <- Array.make (Array.length writes) 0;
  let rv = acc.read_versions and wv = acc.write_versions in
  let committed = ref false in
  while not !committed do
    acc.s_starts <- acc.s_starts + 1;
    let desc = Desc.make ~tid ~birth:spec.arrival in
    match
      for j = 0 to Array.length reads - 1 do
        rv.(j) <- Tvar.version tvars.(reads.(j))
      done;
      Calibrate.spin spec.work;
      for j = 0 to Array.length writes - 1 do
        wv.(j) <- open_write cm desc tvars.(writes.(j))
      done;
      if not (reads_valid desc tvars reads rv) then begin
        ignore (Desc.try_abort desc);
        raise_notrace Abort_now
      end;
      if not (Desc.try_commit desc) then raise_notrace Abort_now
    with
    | () ->
      committed := true;
      acc.s_commits <- acc.s_commits + 1;
      let seq = Atomic.fetch_and_add commit_seq 1 in
      (* [tvars.(o)] has id [o]: the records carry the spec's ids. *)
      if record then
        acc.s_records <-
          {
            tid;
            seq;
            read_set = Array.mapi (fun j o -> (o, rv.(j))) reads;
            write_set = Array.mapi (fun j o -> (o, wv.(j) + 1)) writes;
          }
          :: acc.s_records
    | exception Abort_now -> acc.s_aborts <- acc.s_aborts + 1
  done

let check_objects ~num_objects i objs =
  for j = 0 to Array.length objs - 1 do
    let o = objs.(j) in
    if o < 0 || o >= num_objects then
      invalid_arg
        (Printf.sprintf "Runtime.run: txn %d: object %d out of range" i o)
  done

let check_spec ~num_objects i spec =
  check_objects ~num_objects i spec.reads;
  check_objects ~num_objects i spec.writes;
  (* Duplicate writes would double-count in write_set and in the
     conservation ledger; write sets are tiny, so O(k^2) is fine. *)
  let w = spec.writes in
  for j = 0 to Array.length w - 1 do
    for j' = 0 to j - 1 do
      if w.(j') = w.(j) then
        invalid_arg
          (Printf.sprintf "Runtime.run: txn %d: duplicate write object %d" i
             w.(j))
    done
  done;
  if spec.arrival < 1 then invalid_arg "Runtime.run: arrival < 1";
  if spec.work < 0 then invalid_arg "Runtime.run: negative work"

let run ?(record = false)
    ?(cm = Cm.of_policy (Dtm_online.Policy.Timestamp { preemption = true }))
    ~domains ~num_objects specs =
  if domains < 1 then invalid_arg "Runtime.run: domains < 1";
  if num_objects < 1 then invalid_arg "Runtime.run: num_objects < 1";
  for i = 0 to Array.length specs - 1 do
    check_spec ~num_objects i specs.(i)
  done;
  (* Calibrate before the clock starts — the first ns_per_unit call
     burns a few milliseconds. *)
  ignore (Calibrate.ns_per_unit ());
  let tvars = Array.init num_objects (fun id -> Tvar.create ~id 0) in
  let commit_seq = Atomic.make 0 in
  let total = Array.length specs in
  let run_shard d =
    let acc =
      {
        s_starts = 0;
        s_commits = 0;
        s_aborts = 0;
        s_records = [];
        read_versions = [||];
        write_versions = [||];
      }
    in
    let i = ref d in
    while !i < total do
      run_txn ~cm ~tvars ~commit_seq ~record ~tid:!i specs.(!i) acc;
      i := !i + domains
    done;
    acc
  in
  let t0 = Unix.gettimeofday () in
  let accs =
    Pool.with_pool ~jobs:domains (fun pool ->
        Pool.map pool run_shard (List.init domains (fun d -> d)))
  in
  let wall_ns =
    max 1 (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
  in
  let starts = List.fold_left (fun a s -> a + s.s_starts) 0 accs in
  let commits = List.fold_left (fun a s -> a + s.s_commits) 0 accs in
  let aborts = List.fold_left (fun a s -> a + s.s_aborts) 0 accs in
  let records =
    if not record then [||]
    else begin
      let arr =
        Array.of_list (List.concat_map (fun s -> s.s_records) accs)
      in
      Array.sort (fun a b -> compare a.seq b.seq) arr;
      arr
    end
  in
  let total_increments =
    Array.fold_left (fun a tv -> a + Tvar.value tv) 0 tvars
  in
  let report =
    {
      domains;
      starts;
      commits;
      aborts;
      wall_ns;
      throughput = float_of_int commits /. (float_of_int wall_ns /. 1e9);
      abort_rate =
        (if starts = 0 then 0.0
         else float_of_int aborts /. float_of_int starts);
      total_increments;
    }
  in
  (report, records)

let of_injection ?(work_scale = 1) ~metric ~spec ~count () =
  if count < 0 then invalid_arg "Runtime.of_injection: negative count";
  if work_scale < 0 then invalid_arg "Runtime.of_injection: negative scale";
  let module I = Dtm_workload.Injection in
  let module S = Dtm_online.Stream in
  let homes = I.homes spec in
  let src = I.source ~limit:count spec in
  let out = ref [] in
  let k = ref 0 in
  let continue = ref true in
  while !continue && !k < count do
    match S.pull src with
    | None -> continue := false
    | Some txn ->
      incr k;
      let writes = Array.of_list txn.S.objects in
      let cost =
        Array.fold_left
          (fun acc o ->
            max acc (Dtm_graph.Metric.dist metric txn.S.node homes.(o)))
          1 writes
      in
      out :=
        {
          node = txn.S.node;
          reads = [||];
          writes;
          arrival = txn.S.arrival;
          work = work_scale * cost;
        }
        :: !out
  done;
  Array.of_list (List.rev !out)
