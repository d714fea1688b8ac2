module Prng = Dtm_util.Prng

type verdict = Bounded | Diverging

let verdict_to_string = function
  | Bounded -> "bounded"
  | Diverging -> "diverging"

type report = {
  horizon : int;
  injected : int;
  committed : int;
  final_queue : int;
  peak_queue : int;
  mean_queue : float;
  latency_p50 : int;
  latency_p99 : int;
  latency_p999 : int;
  max_latency : int;
  total_travel : int;
  forced_grants : int;
  preemptions : int;
  verdict : verdict;
}

(* The live-transaction record.  [wslots] holds, per object slot, this
   transaction's entry index in that object's intrusive waiter list, so
   a commit unlinks all of its registrations in O(k) without scanning
   anybody's list. *)
type txn = {
  id : int;
  node : int;
  objects : int array;
  arrival : int;
  mutable missing : int; (* requested objects not yet delivered to us *)
  mutable live : bool;
  wslots : int array;
}

(* [dummy] is the engine-wide sentinel: "no holder", a free waiter-pool
   slot, an empty ring-buffer cell.  It is never live, so every liveness
   test rejects it without a special case. *)
let dummy =
  {
    id = -1;
    node = 0;
    objects = [||];
    arrival = 0;
    missing = 0;
    live = false;
    wslots = [||];
  }

(* [holder == dummy] means unheld; [whead]/[wtail] are the newest and
   oldest entries of the object's waiter list in the shared waiter pool
   (-1 when empty), [wcount] its length. *)
type obj = {
  mutable pos : int;
  mutable holder : txn;
  mutable dest : int;
  mutable transit_until : int; (* 0 = landed *)
  mutable whead : int;
  mutable wtail : int;
  mutable wcount : int;
  mutable dirty : bool; (* queued for grant consideration this step *)
}

let latency_percentiles w =
  if Dtm_util.Stats.Window.length w = 0 then [| -1; -1; -1 |]
  else Dtm_util.Stats.Window.percentiles w [| 50.0; 99.0; 99.9 |]

let older a b =
  match compare a.arrival b.arrival with 0 -> compare a.id b.id | c -> c

(* In-place ascending insertion sorts over array prefixes: the per-step
   commit and dirty batches are tiny (a handful of entries), so this
   beats [List.sort]'s allocation and stays deterministic. *)
let isort_int (a : int array) n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let isort_txn (a : txn array) n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j).id > x.id do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let run ?(policy = Policy.Timestamp { preemption = false }) ?(patience = 50)
    ?(latency_window = 65536) ?(divergence_cap = 10_000) ?probe ?on_commit
    metric src ~homes ~horizon =
  if Array.length homes <> Stream.source_num_objects src then
    invalid_arg "Open_system.run: homes size mismatch";
  if patience < 1 then invalid_arg "Open_system.run: patience < 1";
  if horizon < 1 then invalid_arg "Open_system.run: horizon < 1";
  if divergence_cap < 1 then invalid_arg "Open_system.run: divergence_cap < 1";
  let rng =
    match policy with
    | Policy.Random_grant seed | Policy.Backoff { seed; _ } -> Prng.create ~seed
    | Policy.Timestamp _ | Policy.Nearest | Policy.Window_greedy _ ->
      Prng.create ~seed:0
  in
  let objs =
    Array.map
      (fun h ->
        {
          pos = h;
          holder = dummy;
          dest = h;
          transit_until = 0;
          whead = -1;
          wtail = -1;
          wcount = 0;
          dirty = false;
        })
      homes
  in
  (* Shared waiter pool: one intrusive doubly-linked node per (txn,
     object) registration, recycled through a freelist, so waiting costs
     no allocation and a commit unlinks in O(1) per object.  Freed slots
     point back at [dummy] so dead transaction records are not retained
     through the pool. *)
  let wcap = ref 256 in
  let w_txn = ref (Array.make !wcap dummy) in
  let w_prev = ref (Array.make !wcap (-1)) in
  let w_next = ref (Array.make !wcap (-1)) in
  let w_free = ref (-1) in
  let w_used = ref 0 in
  let walloc t =
    let e =
      if !w_free >= 0 then begin
        let e = !w_free in
        w_free := (!w_next).(e);
        e
      end
      else begin
        if !w_used = !wcap then begin
          let cap = 2 * !wcap in
          let nt = Array.make cap dummy in
          let np = Array.make cap (-1) in
          let nn = Array.make cap (-1) in
          Array.blit !w_txn 0 nt 0 !wcap;
          Array.blit !w_prev 0 np 0 !wcap;
          Array.blit !w_next 0 nn 0 !wcap;
          w_txn := nt;
          w_prev := np;
          w_next := nn;
          wcap := cap
        end;
        let e = !w_used in
        incr w_used;
        e
      end
    in
    (!w_txn).(e) <- t;
    e
  in
  (* Prepend: waiter lists are newest-first, as before. *)
  let wlink o e =
    let wp = !w_prev and wn = !w_next in
    wp.(e) <- -1;
    wn.(e) <- o.whead;
    if o.whead >= 0 then wp.(o.whead) <- e else o.wtail <- e;
    o.whead <- e;
    o.wcount <- o.wcount + 1
  in
  let wunlink o e =
    let wp = !w_prev and wn = !w_next in
    let p = wp.(e) and nx = wn.(e) in
    if p >= 0 then wn.(p) <- nx else o.whead <- nx;
    if nx >= 0 then wp.(nx) <- p else o.wtail <- p;
    o.wcount <- o.wcount - 1;
    (!w_txn).(e) <- dummy;
    wn.(e) <- !w_free;
    w_free := e
  in
  (* Deliveries bucketed by step in a growable circular calendar, so a
     step never scans the object table: slot (t mod size) holds the
     objects landing at step t, and the buffer grows (rarely) past the
     longest transit delay ever scheduled.  Entries live in an int-pool
     (freelist-recycled singly-linked chains per slot) — scheduling and
     delivering allocate nothing. *)
  let bsize = ref 128 in
  let slot_head = ref (Array.make !bsize (-1)) in
  let ccap = ref 256 in
  let cal_t = ref (Array.make !ccap 0) in
  let cal_oid = ref (Array.make !ccap 0) in
  let cal_next = ref (Array.make !ccap (-1)) in
  let cal_free = ref (-1) in
  let cal_used = ref 0 in
  let calloc () =
    if !cal_free >= 0 then begin
      let e = !cal_free in
      cal_free := (!cal_next).(e);
      e
    end
    else begin
      if !cal_used = !ccap then begin
        let cap = 2 * !ccap in
        let nt = Array.make cap 0 in
        let no = Array.make cap 0 in
        let nn = Array.make cap (-1) in
        Array.blit !cal_t 0 nt 0 !ccap;
        Array.blit !cal_oid 0 no 0 !ccap;
        Array.blit !cal_next 0 nn 0 !ccap;
        cal_t := nt;
        cal_oid := no;
        cal_next := nn;
        ccap := cap
      end;
      let e = !cal_used in
      incr cal_used;
      e
    end
  in
  let grow_buckets needed =
    let size = ref !bsize in
    while !size < needed do
      size := !size * 2
    done;
    let nb = Array.make !size (-1) in
    let old = !slot_head in
    let ct = !cal_t and cn = !cal_next in
    Array.iter
      (fun head ->
        let e = ref head in
        while !e >= 0 do
          let nx = cn.(!e) in
          let slot = ct.(!e) mod !size in
          cn.(!e) <- nb.(slot);
          nb.(slot) <- !e;
          e := nx
        done)
      old;
    bsize := !size;
    slot_head := nb
  in
  let schedule_delivery ~now t oid =
    if t - now + 1 >= !bsize then grow_buckets (t - now + 2);
    let e = calloc () in
    (!cal_t).(e) <- t;
    (!cal_oid).(e) <- oid;
    let slot = t mod !bsize in
    let sh = !slot_head in
    (!cal_next).(e) <- sh.(slot);
    sh.(slot) <- e
  in
  let injected = ref 0 in
  let committed = ref 0 in
  let live = ref 0 in
  let travel = ref 0 and forced = ref 0 and preempted = ref 0 in
  let latq = Dtm_util.Stats.Window.create latency_window in
  let max_latency = ref 0 in
  let peak_queue = ref 0 in
  let queue_sum = ref 0.0 in
  (* Segment sums for the stability verdict: planned-horizon thirds. *)
  let t1 = horizon / 3 and t2 = 2 * horizon / 3 in
  let sum_mid = ref 0.0 and sum_last = ref 0.0 in
  (* Age order of the live frontier: a growable ring of records in
     injection order (committed entries are skipped and dropped as they
     reach the front). *)
  let q_cap = ref 1024 in
  let q_buf = ref (Array.make !q_cap dummy) in
  let q_head = ref 0 in
  let q_len = ref 0 in
  let q_push t =
    if !q_len = !q_cap then begin
      let cap = 2 * !q_cap in
      let nb = Array.make cap dummy in
      for i = 0 to !q_len - 1 do
        nb.(i) <- (!q_buf).((!q_head + i) mod !q_cap)
      done;
      q_buf := nb;
      q_cap := cap;
      q_head := 0
    end;
    (!q_buf).((!q_head + !q_len) mod !q_cap) <- t;
    incr q_len
  in
  let q_peek () = (!q_buf).(!q_head) in
  let q_drop () =
    (!q_buf).(!q_head) <- dummy;
    q_head := (!q_head + 1) mod !q_cap;
    decr q_len
  in
  (* Dirty-object and ready-to-commit batches live in reusable array
     prefixes, sorted in place. *)
  let dirty_buf = ref (Array.make 64 0) in
  let dirty_n = ref 0 in
  let mark_dirty oid =
    let o = objs.(oid) in
    if not o.dirty then begin
      o.dirty <- true;
      if !dirty_n = Array.length !dirty_buf then begin
        let nb = Array.make (2 * !dirty_n) 0 in
        Array.blit !dirty_buf 0 nb 0 !dirty_n;
        dirty_buf := nb
      end;
      (!dirty_buf).(!dirty_n) <- oid;
      incr dirty_n
    end
  in
  let commit_buf = ref (Array.make 64 dummy) in
  let commit_n = ref 0 in
  let commit_push t =
    if !commit_n = Array.length !commit_buf then begin
      let nb = Array.make (2 * !commit_n) dummy in
      Array.blit !commit_buf 0 nb 0 !commit_n;
      commit_buf := nb
    end;
    (!commit_buf).(!commit_n) <- t;
    incr commit_n
  in
  let send o oid ~to_ now =
    let d = Dtm_graph.Metric.dist metric o.pos to_.node in
    o.holder <- to_;
    o.dest <- to_.node;
    let t = now + Int.max 1 d in
    o.transit_until <- t;
    travel := !travel + d;
    schedule_delivery ~now t oid
  in
  (* Sources contract non-decreasing arrivals and ids are assigned in
     pull order, so age order is id order and the oldest waiter is the
     tail of the newest-first list — the timestamp policies grant in
     O(1).  [monotone] guards that reasoning: if a source ever violates
     the contract, the flag drops (before the offender is registered)
     and the exact [older]-minimizing walk takes over. *)
  let monotone = ref true in
  let last_arrival = ref min_int in
  (* Pick the winning waiter under [policy] by walking the object's
     intrusive list.  Entries are live by construction (commits unlink
     eagerly), and the walk runs newest-first — the same candidate order
     the lazily compacted lists used to present, so the seeded
     [Random_grant] draw sequence is unchanged. *)
  let choose o =
    let wn = !w_next and wt = !w_txn in
    let head = o.whead in
    if head < 0 then dummy
    else begin
      match policy with
      | Policy.Timestamp _ when !monotone -> wt.(o.wtail)
      | Policy.Timestamp _ ->
        let best = ref wt.(head) in
        let e = ref wn.(head) in
        while !e >= 0 do
          let c = wt.(!e) in
          if older c !best < 0 then best := c;
          e := wn.(!e)
        done;
        !best
      | Policy.Nearest ->
        let best = ref wt.(head) in
        let best_d = ref (Dtm_graph.Metric.dist metric o.pos !best.node) in
        let e = ref wn.(head) in
        while !e >= 0 do
          let c = wt.(!e) in
          let d = Dtm_graph.Metric.dist metric o.pos c.node in
          if d < !best_d || (d = !best_d && older c !best < 0) then begin
            best := c;
            best_d := d
          end;
          e := wn.(!e)
        done;
        !best
      | Policy.Random_grant _ | Policy.Backoff _ ->
        let idx = Prng.int rng o.wcount in
        let e = ref head in
        for _ = 1 to idx do
          e := wn.(!e)
        done;
        wt.(!e)
      | Policy.Window_greedy { window; seed } ->
        let key c =
          let w = Policy.window_index ~window ~arrival:c.arrival in
          (w, Policy.window_priority ~seed ~window_id:w ~id:c.id)
        in
        let best = ref wt.(head) in
        let best_k = ref (key !best) in
        let e = ref wn.(head) in
        while !e >= 0 do
          let c = wt.(!e) in
          let kc = key c in
          if kc < !best_k || (kc = !best_k && older c !best < 0) then begin
            best := c;
            best_k := kc
          end;
          e := wn.(!e)
        done;
        !best
    end
  in
  (* The preemptive-timestamp steal: the oldest waiter strictly older
     than the holder (the filtered-then-minimized walk of old).  Under
     the monotone fast path the only possible winner is the tail — any
     other waiter is younger than it, and if the tail is not older than
     the holder nobody is. *)
  let choose_older_than holder o =
    if !monotone then begin
      if o.wtail < 0 then dummy
      else begin
        let c = (!w_txn).(o.wtail) in
        if c != holder && c.id < holder.id then c else dummy
      end
    end
    else begin
      let wn = !w_next and wt = !w_txn in
      let best = ref dummy in
      let e = ref o.whead in
      while !e >= 0 do
        let c = wt.(!e) in
        if
          c != holder && older c holder < 0
          && (!best == dummy || older c !best < 0)
        then best := c;
        e := wn.(!e)
      done;
      !best
    end
  in
  let deliver now oid =
    let o = objs.(oid) in
    o.pos <- o.dest;
    o.transit_until <- 0;
    let h = o.holder in
    if h != dummy && h.live && o.pos = h.node then begin
      h.missing <- h.missing - 1;
      if h.missing = 0 then commit_push h
    end;
    (* A landed object is a fresh grant/steal opportunity: waiters that
       registered while it was in flight were skipped then. *)
    mark_dirty oid;
    ignore now
  in
  let next_id = ref 0 in
  let pending = ref (Stream.pull src) in
  let last_progress = ref 0 in
  let steps_done = ref 0 in
  let diverged = ref false in
  let finished = ref false in
  let step = ref 0 in
  while (not !finished) && !step < horizon do
    incr step;
    let now = !step in
    (* 1. Inject every transaction whose arrival step has come.  A loop,
       not a local recursive function: a closure over this step's state
       would be allocated on every step. *)
    let injecting = ref true in
    while !injecting do
      match !pending with
      | Some st when st.Stream.arrival <= now ->
        if st.Stream.arrival < !last_arrival then monotone := false
        else last_arrival := st.Stream.arrival;
        let k = List.length st.Stream.objects in
        let r =
          {
            id = !next_id;
            node = st.Stream.node;
            objects = Array.of_list st.Stream.objects;
            arrival = st.Stream.arrival;
            missing = k;
            live = true;
            wslots = Array.make k (-1);
          }
        in
        incr next_id;
        incr injected;
        incr live;
        q_push r;
        for i = 0 to k - 1 do
          let oid = r.objects.(i) in
          let e = walloc r in
          wlink objs.(oid) e;
          r.wslots.(i) <- e;
          mark_dirty oid
        done;
        (* Injection is NOT progress: under continual arrivals it would
           reset the watchdog forever and a wedged grant state would
           never recover.  Only deliveries and commits count. *)
        pending := Stream.pull src
      | _ -> injecting := false
    done;
    (* 2. Deliver this step's bucket. *)
    let slot = now mod !bsize in
    let head = (!slot_head).(slot) in
    if head >= 0 then begin
      (!slot_head).(slot) <- -1;
      let ct = !cal_t and cn = !cal_next in
      let e = ref head in
      while !e >= 0 do
        let nx = cn.(!e) in
        if ct.(!e) = now then deliver now (!cal_oid).(!e);
        cn.(!e) <- !cal_free;
        cal_free := !e;
        e := nx
      done;
      last_progress := now
    end;
    (* 3. Commit (ascending id for a deterministic latency sample order). *)
    if !commit_n > 0 then begin
      let n = !commit_n in
      commit_n := 0;
      let cb = !commit_buf in
      isort_txn cb n;
      for i = 0 to n - 1 do
        let txn = cb.(i) in
        cb.(i) <- dummy;
        txn.live <- false;
        decr live;
        incr committed;
        let latency = now - txn.arrival + 1 in
        Dtm_util.Stats.Window.add latq latency;
        if latency > !max_latency then max_latency := latency;
        (match on_commit with
        | Some f -> f ~id:txn.id ~node:txn.node ~step:now
        | None -> ());
        for j = 0 to Array.length txn.objects - 1 do
          let o = objs.(txn.objects.(j)) in
          wunlink o txn.wslots.(j);
          if o.holder == txn then begin
            o.holder <- dummy;
            mark_dirty txn.objects.(j)
          end
        done;
        last_progress := now
      done
    end;
    (* 4. Grant dirty objects (ascending object id).  Nothing in the
       grant path re-marks, so the batch prefix is stable while it is
       walked. *)
    if !dirty_n > 0 then begin
      let n = !dirty_n in
      dirty_n := 0;
      let db = !dirty_buf in
      isort_int db n;
      for i = 0 to n - 1 do
        let oid = db.(i) in
        let o = objs.(oid) in
        o.dirty <- false;
        if o.transit_until = 0 then begin
          if o.holder == dummy then begin
            let c = choose o in
            if c != dummy then send o oid ~to_:c now
          end
          else begin
            match policy with
            | Policy.Timestamp { preemption = true } ->
              let holder = o.holder in
              let c = choose_older_than holder o in
              if c != dummy then begin
                (* The object sits delivered at the holder: stealing
                   it re-opens that request. *)
                holder.missing <- holder.missing + 1;
                incr preempted;
                send o oid ~to_:c now
              end
            | _ -> ()
          end
        end
      done
    end;
    (* 5. Drain committed entries from the age ring eagerly — otherwise
       every transaction ever injected stays reachable through it and a
       10^6-transaction run retains the whole history instead of the
       frontier.  (The watchdog below also skips dead entries, but only
       when it fires.) *)
    while !q_len > 0 && not (q_peek ()).live do
      q_drop ()
    done;
    (* 6. Watchdog: force-grant the oldest live transaction's objects
       after [patience] idle steps. *)
    if now - !last_progress > patience then begin
      while !q_len > 0 && not (q_peek ()).live do
        q_drop ()
      done;
      if !q_len = 0 then last_progress := now
      else begin
        let star = q_peek () in
        for i = 0 to Array.length star.objects - 1 do
          let oid = star.objects.(i) in
          let o = objs.(oid) in
          if o.transit_until = 0 && o.holder != star then begin
            if o.holder != dummy then o.holder.missing <- o.holder.missing + 1;
            incr forced;
            send o oid ~to_:star now
          end
        done;
        last_progress := now
      end
    end;
    (* 7. Sample the queue; verdict bookkeeping; early exits. *)
    let q = !live in
    if q > !peak_queue then peak_queue := q;
    queue_sum := !queue_sum +. float_of_int q;
    if now > t2 then sum_last := !sum_last +. float_of_int q
    else if now > t1 then sum_mid := !sum_mid +. float_of_int q;
    (match probe with
    | Some f -> f ~step:now ~injected:!injected ~committed:!committed ~queue:q
    | None -> ());
    steps_done := now;
    if q > divergence_cap then begin
      diverged := true;
      finished := true
    end
    else if Option.is_none !pending && q = 0 then finished := true
  done;
  let hsteps = !steps_done in
  let verdict =
    if !diverged then Diverging
    else if hsteps < horizon then Bounded (* drained a finite source *)
    else begin
      let mean_mid = !sum_mid /. float_of_int (max 1 (t2 - t1)) in
      let mean_last = !sum_last /. float_of_int (max 1 (horizon - t2)) in
      if mean_last <= (1.35 *. mean_mid) +. 4.0 then Bounded else Diverging
    end
  in
  let lat = latency_percentiles latq in
  {
    horizon = hsteps;
    injected = !injected;
    committed = !committed;
    final_queue = !live;
    peak_queue = !peak_queue;
    mean_queue = (if hsteps = 0 then 0.0 else !queue_sum /. float_of_int hsteps);
    latency_p50 = lat.(0);
    latency_p99 = lat.(1);
    latency_p999 = lat.(2);
    max_latency = !max_latency;
    total_travel = !travel;
    forced_grants = !forced;
    preemptions = !preempted;
    verdict;
  }

let critical_rate ?(iters = 7) ~lo ~hi stable =
  if not (lo > 0.0 && lo < hi) then
    invalid_arg "Open_system.critical_rate: need 0 < lo < hi";
  if iters < 1 then invalid_arg "Open_system.critical_rate: iters < 1";
  if not (stable lo) then (lo, lo)
  else if stable hi then (hi, hi)
  else begin
    let lo = ref lo and hi = ref hi in
    for _ = 1 to iters do
      let mid = 0.5 *. (!lo +. !hi) in
      if stable mid then lo := mid else hi := mid
    done;
    (!lo, !hi)
  end
