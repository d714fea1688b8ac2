module Prng = Dtm_util.Prng
module Pool = Dtm_util.Pool
module Window = Dtm_util.Stats.Window

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

(* ------------------------------------------------------------------ *)
(* The frontier engine                                                 *)
(* ------------------------------------------------------------------ *)

(* One engine serves every deployment shape.  Objects are partitioned
   across [S] cells by an [owner] table; a cell runs the per-step
   inject, deliver, commit, grant and watchdog phases over the objects it
   owns and the transactions anchored at it, and reaches other cells only
   through the message protocol below.  [run] is the one-cell case: its
   owner table is all zeros, so no message is ever posted, and
   {!Sharded.run} supplies a hashed table.

   The live-transaction record covers both roles: a transaction anchored
   at this cell (full object set, authoritative [missing] count) and a
   proxy for a remote transaction waiting on one object owned here
   ([objects] is that single object, [anchor] names the shard that owns
   the lifecycle).  [wslots] holds, per object slot, this transaction's
   entry index in that object's intrusive waiter list, so a commit
   unlinks all of its registrations in O(k) without scanning anybody's
   list. *)
type txn = {
  id : int; (* global pull-order id, identical on every cell *)
  node : int;
  arrival : int;
  anchor : int;
  objects : int array;
  wslots : int array;
  mutable missing : int;
  mutable live : bool;
}

(* [dummy] is the engine-wide sentinel: "no holder", a free waiter-pool
   slot, an empty ring-buffer cell.  It is never live, so every liveness
   test rejects it without a special case. *)
let dummy =
  {
    id = -1;
    node = 0;
    arrival = 0;
    anchor = -1;
    objects = [||];
    wslots = [||];
    missing = 0;
    live = false;
  }

(* [holder == dummy] means unheld; [whead]/[wtail] are the newest and
   oldest entries of the object's waiter list in the cell's waiter pool
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
  (* Not [dummy] while a REVOKE for the current (remote) holder is in
     flight: the object must not move or be re-stolen until the holder's
     anchor answers (ACK) or commits (RELEASE) — that handshake is what
     keeps committed prefixes physically consistent under cross-shard
     preemption.  It names the waiter the revocation was issued for: the
     ACK grants to it directly, as a one-cell force does, rather than
     letting the policy's free-object choice (e.g. Nearest) hand the
     object straight back to the revokee. *)
  mutable revoke_for : txn;
}

let latency_percentiles w =
  if Window.length w = 0 then [| -1; -1; -1 |]
  else Window.percentiles w [| 50.0; 99.0; 99.9 |]

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

(* ------------------------------------------------------------------ *)
(* Cross-shard messages                                               *)
(* ------------------------------------------------------------------ *)

(* Fixed-width integer records in flat per-(sender, receiver) buffers.
   A message written during round r is applied by its receiver at the
   start of round r + 1; each (sender, receiver) channel is FIFO, which
   the protocol relies on (DELIVERED before a later REVOKE for the same
   object, REQUEST before any FORCE for the same transaction). *)
let msg_request = 0 (* oid, txn id, node, arrival: register a waiter *)
let msg_delivered = 1 (* oid, txn id: your object landed at the txn *)
let msg_release = 2 (* oid, txn id: txn committed, drop its claim *)
let msg_revoke = 3 (* oid, txn id: give back the delivered object *)
let msg_ack = 4 (* oid, txn id: revocation granted, object is free *)
let msg_force = 5 (* oid, txn id: watchdog demands a grant to txn *)

type buf = { mutable a : int array; mutable len : int }

let buf_make () = { a = Array.make 64 0; len = 0 }

let buf_push b x =
  if b.len = Array.length b.a then begin
    let na = Array.make (2 * b.len) 0 in
    Array.blit b.a 0 na 0 b.len;
    b.a <- na
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

(* ------------------------------------------------------------------ *)
(* Cell state: one frontier-only sub-engine per shard                 *)
(* ------------------------------------------------------------------ *)

type cell = {
  me : int;
  shards : int;
  metric : Dtm_graph.Metric.t;
  policy : Policy.t;
  patience : int;
  rng : Prng.t;
  owner : int array; (* oid -> owning shard, shared read-only *)
  objs : obj array; (* full object table; only owned slots are used *)
  (* This round's arrivals anchored here, in pull order: the
     transaction, its global pull-order id and its injection step.  The
     coordinator fills the buffer before the round and the cell drains it
     step by step; slots [arr_head, arr_len) are still to inject. *)
  mutable arr_txn : Stream.txn array;
  mutable arr_id : int array;
  mutable arr_step : int array;
  mutable arr_len : int;
  mutable arr_head : int;
  (* Transactions anchored here that wait on at least one remote object,
     addressable by id for DELIVERED / REVOKE application (see
     [remote_find]). *)
  mutable remote : txn array;
  (* intrusive waiter pool *)
  mutable wcap : int;
  mutable w_txn : txn array;
  mutable w_prev : int array;
  mutable w_next : int array;
  mutable w_free : int;
  mutable w_used : int;
  (* circular delivery calendar *)
  mutable bsize : int;
  mutable slot_head : int array;
  mutable ccap : int;
  mutable cal_t : int array;
  mutable cal_oid : int array;
  mutable cal_next : int array;
  mutable cal_free : int;
  mutable cal_used : int;
  (* age ring of local live transactions (watchdog order) *)
  mutable q_cap : int;
  mutable q_buf : txn array;
  mutable q_head : int;
  mutable q_len : int;
  (* per-step scratch *)
  mutable dirty_buf : int array;
  mutable dirty_n : int;
  mutable commit_buf : txn array;
  mutable commit_n : int;
  (* counters *)
  mutable injected : int;
  mutable committed : int;
  mutable travel : int;
  mutable forced : int;
  mutable preempted : int;
  latq : Window.t;
  mutable max_latency : int;
  mutable last_progress : int;
  mutable monotone : bool;
  mutable last_reg_arrival : int;
  (* per-round logs, read by the coordinator at the barrier *)
  inj_at : int array; (* [injected] after each step of the round *)
  com_at : int array; (* [committed] after each step of the round *)
  log_commits : bool; (* an [on_commit] hook wants [commit_log] *)
  commit_log : buf; (* (step, id, node) triples, kept iff [log_commits] *)
}

(* Empty arrival-buffer slot: consumed arrivals are overwritten with it
   so the buffer does not retain the stream. *)
let no_arrival = { Stream.node = 0; objects = []; arrival = 0 }

let make_cell ~me ~shards ~metric ~policy ~patience ~latency_window ~owner
    ~homes ~round_steps ~log_commits =
  let rng =
    match policy with
    | Policy.Random_grant seed | Policy.Backoff { seed; _ } ->
      Prng.create ~seed:(seed + (1000003 * me))
    | Policy.Timestamp _ | Policy.Nearest | Policy.Window_greedy _ ->
      Prng.create ~seed:me
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
          revoke_for = dummy;
        })
      homes
  in
  {
    me;
    shards;
    metric;
    policy;
    patience;
    rng;
    owner;
    objs;
    arr_txn = Array.make 64 no_arrival;
    arr_id = Array.make 64 0;
    arr_step = Array.make 64 0;
    arr_len = 0;
    arr_head = 0;
    remote = Array.make 64 dummy;
    wcap = 256;
    w_txn = Array.make 256 dummy;
    w_prev = Array.make 256 (-1);
    w_next = Array.make 256 (-1);
    w_free = -1;
    w_used = 0;
    bsize = 128;
    slot_head = Array.make 128 (-1);
    ccap = 256;
    cal_t = Array.make 256 0;
    cal_oid = Array.make 256 0;
    cal_next = Array.make 256 (-1);
    cal_free = -1;
    cal_used = 0;
    q_cap = 1024;
    q_buf = Array.make 1024 dummy;
    q_head = 0;
    q_len = 0;
    dirty_buf = Array.make 64 0;
    dirty_n = 0;
    commit_buf = Array.make 64 dummy;
    commit_n = 0;
    injected = 0;
    committed = 0;
    travel = 0;
    forced = 0;
    preempted = 0;
    latq = Window.create latency_window;
    max_latency = 0;
    last_progress = 0;
    monotone = true;
    last_reg_arrival = min_int;
    inj_at = Array.make round_steps 0;
    com_at = Array.make round_steps 0;
    log_commits;
    commit_log = buf_make ();
  }

(* Functions marked [@inline] here and below run at every step or
   several times per transaction; as calls they cost a one-cell run
   about 7% of its time. *)

(* ---- arrivals ----------------------------------------------------- *)

let arrive c ~id ~step st =
  let n = c.arr_len in
  if n = Array.length c.arr_id then begin
    let grow a fill =
      let na = Array.make (2 * n) fill in
      Array.blit a 0 na 0 n;
      na
    in
    c.arr_txn <- grow c.arr_txn no_arrival;
    c.arr_id <- grow c.arr_id 0;
    c.arr_step <- grow c.arr_step 0
  end;
  c.arr_txn.(n) <- st;
  c.arr_id.(n) <- id;
  c.arr_step.(n) <- step;
  c.arr_len <- n + 1

(* ---- remote-transaction table ------------------------------------- *)

(* Direct-mapped on [id land (size - 1)].  Live anchored ids span the
   frontier, so once the table is wider than that span no two live
   entries share a slot; an insert that meets a live entry doubles the
   table, and so does a rehash that meets one, until every live entry
   has a slot of its own.  Entries leave at commit. *)
let remote_find c id =
  let t = c.remote.(id land (Array.length c.remote - 1)) in
  if t.id = id then t else dummy

let remote_rehash c =
  let size = ref (2 * Array.length c.remote) in
  let placed = ref false in
  while not !placed do
    let tbl = Array.make !size dummy in
    let ok = ref true in
    Array.iter
      (fun t ->
        if t.live then begin
          let s = t.id land (!size - 1) in
          if tbl.(s).live then ok := false else tbl.(s) <- t
        end)
      c.remote;
    if !ok then begin
      c.remote <- tbl;
      placed := true
    end
    else size := 2 * !size
  done

let remote_add c t =
  while c.remote.(t.id land (Array.length c.remote - 1)).live do
    remote_rehash c
  done;
  c.remote.(t.id land (Array.length c.remote - 1)) <- t

let[@inline] remote_remove c t =
  let s = t.id land (Array.length c.remote - 1) in
  if c.remote.(s) == t then c.remote.(s) <- dummy

(* ---- waiter pool ------------------------------------------------- *)

(* One intrusive doubly-linked node per (txn, object) registration,
   recycled through a freelist, so waiting costs no allocation and a
   commit unlinks in O(1) per object.  Freed slots point back at [dummy]
   so dead transaction records are not retained through the pool. *)

let[@inline] walloc c t =
  let e =
    if c.w_free >= 0 then begin
      let e = c.w_free in
      c.w_free <- c.w_next.(e);
      e
    end
    else begin
      if c.w_used = c.wcap then begin
        let cap = 2 * c.wcap in
        let nt = Array.make cap dummy in
        let np = Array.make cap (-1) in
        let nn = Array.make cap (-1) in
        Array.blit c.w_txn 0 nt 0 c.wcap;
        Array.blit c.w_prev 0 np 0 c.wcap;
        Array.blit c.w_next 0 nn 0 c.wcap;
        c.w_txn <- nt;
        c.w_prev <- np;
        c.w_next <- nn;
        c.wcap <- cap
      end;
      let e = c.w_used in
      c.w_used <- c.w_used + 1;
      e
    end
  in
  c.w_txn.(e) <- t;
  e

(* Prepend: waiter lists are newest-first. *)
let[@inline] wlink c o e =
  c.w_prev.(e) <- -1;
  c.w_next.(e) <- o.whead;
  if o.whead >= 0 then c.w_prev.(o.whead) <- e else o.wtail <- e;
  o.whead <- e;
  o.wcount <- o.wcount + 1

let[@inline] wunlink c o e =
  let p = c.w_prev.(e) and nx = c.w_next.(e) in
  if p >= 0 then c.w_next.(p) <- nx else o.whead <- nx;
  if nx >= 0 then c.w_prev.(nx) <- p else o.wtail <- p;
  o.wcount <- o.wcount - 1;
  c.w_txn.(e) <- dummy;
  c.w_next.(e) <- c.w_free;
  c.w_free <- e

(* A force grant must never bypass an older waiter: in the unsharded
   engine the watchdog serves the {e globally} oldest transaction, which
   by construction is the oldest waiter on every object it touches.  A
   shard's watchdog only knows its {e local} oldest, so without this
   check two shards force-grant and preempt the same object back and
   forth forever (each serving its own elder).  Dropping a force when an
   older waiter exists restores the global rule: the globally oldest
   transaction's forces always pass, nothing can steal from it, and it
   commits. *)
let has_older_waiter c o star =
  let e = ref o.whead in
  let found = ref false in
  while !e >= 0 && not !found do
    let t = c.w_txn.(!e) in
    if t != star && older t star < 0 then found := true else e := c.w_next.(!e)
  done;
  !found

(* Find the waiter-pool entry of [txnid] in [o]'s list (short walks). *)
let wfind c o txnid =
  let e = ref o.whead in
  let found = ref (-1) in
  while !e >= 0 && !found < 0 do
    if c.w_txn.(!e).id = txnid then found := !e else e := c.w_next.(!e)
  done;
  !found

(* ---- delivery calendar ------------------------------------------- *)

(* Deliveries bucketed by step in a growable circular calendar, so a
   step never scans the object table: slot (t mod size) holds the
   objects landing at step t, and the buffer grows (rarely) past the
   longest transit delay ever scheduled.  Entries live in an int-pool
   (freelist-recycled singly-linked chains per slot), so scheduling and
   delivering allocate nothing. *)

let calloc c =
  if c.cal_free >= 0 then begin
    let e = c.cal_free in
    c.cal_free <- c.cal_next.(e);
    e
  end
  else begin
    if c.cal_used = c.ccap then begin
      let cap = 2 * c.ccap in
      let nt = Array.make cap 0 in
      let no = Array.make cap 0 in
      let nn = Array.make cap (-1) in
      Array.blit c.cal_t 0 nt 0 c.ccap;
      Array.blit c.cal_oid 0 no 0 c.ccap;
      Array.blit c.cal_next 0 nn 0 c.ccap;
      c.cal_t <- nt;
      c.cal_oid <- no;
      c.cal_next <- nn;
      c.ccap <- cap
    end;
    let e = c.cal_used in
    c.cal_used <- c.cal_used + 1;
    e
  end

let grow_buckets c needed =
  let size = ref c.bsize in
  while !size < needed do
    size := !size * 2
  done;
  let nb = Array.make !size (-1) in
  Array.iter
    (fun head ->
      let e = ref head in
      while !e >= 0 do
        let nx = c.cal_next.(!e) in
        let slot = c.cal_t.(!e) mod !size in
        c.cal_next.(!e) <- nb.(slot);
        nb.(slot) <- !e;
        e := nx
      done)
    c.slot_head;
  c.bsize <- !size;
  c.slot_head <- nb

let schedule_delivery c ~now t oid =
  if t - now + 1 >= c.bsize then grow_buckets c (t - now + 2);
  let e = calloc c in
  c.cal_t.(e) <- t;
  c.cal_oid.(e) <- oid;
  let slot = t mod c.bsize in
  c.cal_next.(e) <- c.slot_head.(slot);
  c.slot_head.(slot) <- e

(* ---- age ring ----------------------------------------------------- *)

(* Age order of the cell's live transactions: a growable ring of records
   in injection order (committed entries are skipped and dropped as they
   reach the front). *)

let[@inline] q_push c t =
  if c.q_len = c.q_cap then begin
    let cap = 2 * c.q_cap in
    let nb = Array.make cap dummy in
    for i = 0 to c.q_len - 1 do
      nb.(i) <- c.q_buf.((c.q_head + i) mod c.q_cap)
    done;
    c.q_buf <- nb;
    c.q_cap <- cap;
    c.q_head <- 0
  end;
  c.q_buf.((c.q_head + c.q_len) mod c.q_cap) <- t;
  c.q_len <- c.q_len + 1

let q_peek c = c.q_buf.(c.q_head)

let q_drop c =
  c.q_buf.(c.q_head) <- dummy;
  c.q_head <- (c.q_head + 1) mod c.q_cap;
  c.q_len <- c.q_len - 1

(* ---- step scratch ------------------------------------------------- *)

let mark_dirty c oid =
  let o = c.objs.(oid) in
  if not o.dirty then begin
    o.dirty <- true;
    if c.dirty_n = Array.length c.dirty_buf then begin
      let nb = Array.make (2 * c.dirty_n) 0 in
      Array.blit c.dirty_buf 0 nb 0 c.dirty_n;
      c.dirty_buf <- nb
    end;
    c.dirty_buf.(c.dirty_n) <- oid;
    c.dirty_n <- c.dirty_n + 1
  end

let[@inline] commit_push c t =
  if c.commit_n = Array.length c.commit_buf then begin
    let nb = Array.make (2 * c.commit_n) dummy in
    Array.blit c.commit_buf 0 nb 0 c.commit_n;
    c.commit_buf <- nb
  end;
  c.commit_buf.(c.commit_n) <- t;
  c.commit_n <- c.commit_n + 1

let send c o oid ~to_ now =
  let d = Dtm_graph.Metric.dist c.metric o.pos to_.node in
  o.holder <- to_;
  o.dest <- to_.node;
  let t = now + Int.max 1 d in
  o.transit_until <- t;
  c.travel <- c.travel + d;
  schedule_delivery c ~now t oid

(* ---- policy choice ------------------------------------------------ *)

(* Sources contract non-decreasing arrivals and ids are assigned in pull
   order, so age order is id order and the oldest waiter is the tail of
   the newest-first list: the timestamp policies grant in O(1).
   [monotone] guards that reasoning: if a source ever violates the
   contract, the flag drops (before the offender is registered) and the
   exact [older]-minimizing walk takes over.  Entries are live by
   construction (commits unlink eagerly), and every walk runs
   newest-first, which fixes the seeded [Random_grant] draw sequence. *)

let window_key ~window ~seed t =
  let w = Policy.window_index ~window ~arrival:t.arrival in
  (w, Policy.window_priority ~seed ~window_id:w ~id:t.id)

let[@inline] choose c o =
  let head = o.whead in
  if head < 0 then dummy
  else begin
    match c.policy with
    | Policy.Timestamp _ when c.monotone -> c.w_txn.(o.wtail)
    | Policy.Timestamp _ ->
      let best = ref c.w_txn.(head) in
      let e = ref c.w_next.(head) in
      while !e >= 0 do
        let cand = c.w_txn.(!e) in
        if older cand !best < 0 then best := cand;
        e := c.w_next.(!e)
      done;
      !best
    | Policy.Nearest ->
      let best = ref c.w_txn.(head) in
      let best_d = ref (Dtm_graph.Metric.dist c.metric o.pos !best.node) in
      let e = ref c.w_next.(head) in
      while !e >= 0 do
        let cand = c.w_txn.(!e) in
        let d = Dtm_graph.Metric.dist c.metric o.pos cand.node in
        if d < !best_d || (d = !best_d && older cand !best < 0) then begin
          best := cand;
          best_d := d
        end;
        e := c.w_next.(!e)
      done;
      !best
    | Policy.Random_grant _ | Policy.Backoff _ ->
      let idx = Prng.int c.rng o.wcount in
      let e = ref head in
      for _ = 1 to idx do
        e := c.w_next.(!e)
      done;
      c.w_txn.(!e)
    | Policy.Window_greedy { window; seed } ->
      let best = ref c.w_txn.(head) in
      let best_k = ref (window_key ~window ~seed !best) in
      let e = ref c.w_next.(head) in
      while !e >= 0 do
        let cand = c.w_txn.(!e) in
        let kc = window_key ~window ~seed cand in
        if kc < !best_k || (kc = !best_k && older cand !best < 0) then begin
          best := cand;
          best_k := kc
        end;
        e := c.w_next.(!e)
      done;
      !best
  end

(* The preemptive-timestamp steal: the oldest waiter strictly older than
   the holder.  Under the monotone fast path the only possible winner is
   the tail: any other waiter is younger than it, and if the tail is not
   older than the holder nobody is. *)
let[@inline] choose_older_than c holder o =
  if c.monotone then begin
    if o.wtail < 0 then dummy
    else begin
      let cand = c.w_txn.(o.wtail) in
      if cand != holder && older cand holder < 0 then cand else dummy
    end
  end
  else begin
    let best = ref dummy in
    let e = ref o.whead in
    while !e >= 0 do
      let cand = c.w_txn.(!e) in
      if
        cand != holder && older cand holder < 0
        && (!best == dummy || older cand !best < 0)
      then best := cand;
      e := c.w_next.(!e)
    done;
    !best
  end

(* ------------------------------------------------------------------ *)
(* Round execution                                                    *)
(* ------------------------------------------------------------------ *)

(* [outbox.(set).(s).(d)] is the channel s -> d for rounds of parity
   [set]: written by cell s during round r (set = r land 1), read and
   reset by cell d during round r + 1.  One writer and one reader per
   buffer per round, which is exactly what [Pool]'s barrier publishes. *)
type net = buf array array array

let post (net : net) ~set ~src ~dst tag a b =
  let bf = net.(set).(src).(dst) in
  buf_push bf tag;
  buf_push bf a;
  buf_push bf b

let post4 (net : net) ~set ~src ~dst tag a b cc d =
  let bf = net.(set).(src).(dst) in
  buf_push bf tag;
  buf_push bf a;
  buf_push bf b;
  buf_push bf cc;
  buf_push bf d

(* Deliver a landed object to its holder (shared by the calendar walk
   and nothing else — proxies turn into DELIVERED messages). *)
let[@inline] deliver c (net : net) ~set oid =
  let o = c.objs.(oid) in
  o.pos <- o.dest;
  o.transit_until <- 0;
  let h = o.holder in
  if h != dummy && h.live && o.pos = h.node then begin
    if h.anchor = c.me then begin
      h.missing <- h.missing - 1;
      if h.missing = 0 then commit_push c h
    end
    else post net ~set ~src:c.me ~dst:h.anchor msg_delivered oid h.id
  end;
  (* A landed object is a fresh grant/steal opportunity: waiters that
     registered while it was in flight were skipped then. *)
  mark_dirty c oid

let[@inline] register_waiter c t oid =
  if t.arrival < c.last_reg_arrival then c.monotone <- false
  else c.last_reg_arrival <- t.arrival;
  let e = walloc c t in
  wlink c c.objs.(oid) e;
  mark_dirty c oid;
  e

let apply_inbox c (net : net) ~round ~now =
  let rset = (round + 1) land 1 and wset = round land 1 in
  for src = 0 to c.shards - 1 do
    let bf = net.(rset).(src).(c.me) in
    let i = ref 0 in
    while !i < bf.len do
      let tag = bf.a.(!i) in
      if tag = msg_request then begin
        let oid = bf.a.(!i + 1)
        and id = bf.a.(!i + 2)
        and node = bf.a.(!i + 3)
        and arrival = bf.a.(!i + 4) in
        let t =
          {
            id;
            node;
            arrival;
            anchor = src;
            objects = [| oid |];
            wslots = [| -1 |];
            missing = 0;
            live = true;
          }
        in
        t.wslots.(0) <- register_waiter c t oid;
        i := !i + 5
      end
      else begin
        let oid = bf.a.(!i + 1) and id = bf.a.(!i + 2) in
        i := !i + 3;
        if tag = msg_delivered then begin
          let t = remote_find c id in
          if t.live then begin
            t.missing <- t.missing - 1;
            if t.missing = 0 then commit_push c t
          end
        end
        else if tag = msg_release then begin
          let o = c.objs.(oid) in
          let e = wfind c o id in
          if e >= 0 then wunlink c o e;
          if o.holder != dummy && o.holder.id = id then begin
            o.holder.live <- false;
            o.holder <- dummy;
            o.revoke_for <- dummy;
            mark_dirty c oid
          end
        end
        else if tag = msg_revoke then begin
          (* The owner wants the object back: concede before it moves,
             so this cell never commits a transaction whose object has
             already left its node. *)
          let t = remote_find c id in
          (* A committed transaction's RELEASE is already in flight. *)
          if t.live then begin
            t.missing <- t.missing + 1;
            post net ~set:wset ~src:c.me ~dst:src msg_ack oid id
          end
        end
        else if tag = msg_ack then begin
          let o = c.objs.(oid) in
          let star = o.revoke_for in
          if star != dummy && o.holder != dummy && o.holder.id = id then begin
            o.holder <- dummy;
            o.revoke_for <- dummy;
            (* Live waiters stay linked until commit or release, so a
               live [star] still wants the object: grant it directly. *)
            if star.live then send c o oid ~to_:star now
            else mark_dirty c oid
          end
        end
        else begin
          (* msg_force: a remote watchdog demands this object for [id].
             Grant immediately when free, steal when held locally, start
             a revocation when held by another shard's transaction — but
             only from a {e younger} holder.  Each cell's watchdog serves
             its local oldest, so without the age guard two shards could
             revoke each other's elders forever; with it, the globally
             oldest transaction never loses a delivered object and the
             system stays livelock-free, as in the unsharded engine. *)
          let o = c.objs.(oid) in
          let e = wfind c o id in
          if e >= 0 && o.transit_until = 0 && o.revoke_for == dummy then begin
            let star = c.w_txn.(e) in
            if o.holder == star || has_older_waiter c o star then ()
            else if o.holder == dummy then begin
              c.forced <- c.forced + 1;
              send c o oid ~to_:star now
            end
            else if older star o.holder < 0 then begin
              if o.holder.anchor = c.me then begin
                o.holder.missing <- o.holder.missing + 1;
                c.forced <- c.forced + 1;
                send c o oid ~to_:star now
              end
              else begin
                o.revoke_for <- star;
                c.forced <- c.forced + 1;
                post net ~set:wset ~src:c.me ~dst:o.holder.anchor msg_revoke
                  oid o.holder.id
              end
            end
          end
        end
      end
    done;
    bf.len <- 0
  done

(* Inject one transaction anchored here under its global pull-order id:
   register it with the objects this cell owns, request the others from
   their owners. *)
let[@inline] inject c (net : net) ~set ~id st =
  let k = List.length st.Stream.objects in
  let t =
    {
      id;
      node = st.Stream.node;
      arrival = st.Stream.arrival;
      anchor = c.me;
      objects = Array.of_list st.Stream.objects;
      wslots = Array.make k (-1);
      missing = k;
      live = true;
    }
  in
  c.injected <- c.injected + 1;
  q_push c t;
  let remote = ref false in
  for i = 0 to k - 1 do
    let oid = t.objects.(i) in
    if c.owner.(oid) = c.me then t.wslots.(i) <- register_waiter c t oid
    else begin
      remote := true;
      post4 net ~set ~src:c.me ~dst:c.owner.(oid) msg_request oid id t.node
        t.arrival
    end
  done;
  if !remote then remote_add c t

(* One step of the cell after its injections: deliver, commit, grant,
   watchdog.  Injection is NOT progress: under continual arrivals it
   would reset the watchdog forever and a wedged grant state would never
   recover.  Only deliveries and commits count. *)
let[@inline] run_step c (net : net) ~set now =
  (* 1. Deliver this step's calendar bucket. *)
  let slot = now mod c.bsize in
  let head = c.slot_head.(slot) in
  if head >= 0 then begin
    c.slot_head.(slot) <- -1;
    let e = ref head in
    while !e >= 0 do
      let nx = c.cal_next.(!e) in
      if c.cal_t.(!e) = now then deliver c net ~set c.cal_oid.(!e);
      c.cal_next.(!e) <- c.cal_free;
      c.cal_free <- !e;
      e := nx
    done;
    c.last_progress <- now
  end;
  (* 2. Commit (ascending id).  [missing] can have bounced back above
     zero since the push (a revocation applied at the round start), so
     re-check; a skipped entry is re-pushed when it next reaches zero. *)
  if c.commit_n > 0 then begin
    let n = c.commit_n in
    c.commit_n <- 0;
    let cb = c.commit_buf in
    isort_txn cb n;
    for i = 0 to n - 1 do
      let t = cb.(i) in
      cb.(i) <- dummy;
      if t.live && t.missing = 0 then begin
        t.live <- false;
        c.committed <- c.committed + 1;
        let latency = now - t.arrival + 1 in
        Window.add c.latq latency;
        if latency > c.max_latency then c.max_latency <- latency;
        if c.log_commits then begin
          buf_push c.commit_log now;
          buf_push c.commit_log t.id;
          buf_push c.commit_log t.node
        end;
        for j = 0 to Array.length t.objects - 1 do
          let oid = t.objects.(j) in
          if c.owner.(oid) = c.me then begin
            let o = c.objs.(oid) in
            wunlink c o t.wslots.(j);
            (* A local holder is never under revocation. *)
            if o.holder == t then begin
              o.holder <- dummy;
              mark_dirty c oid
            end
          end
          else post net ~set ~src:c.me ~dst:c.owner.(oid) msg_release oid t.id
        done;
        remote_remove c t;
        c.last_progress <- now
      end
    done
  end;
  (* 3. Grant dirty owned objects (ascending object id). *)
  if c.dirty_n > 0 then begin
    let n = c.dirty_n in
    c.dirty_n <- 0;
    let db = c.dirty_buf in
    isort_int db n;
    for i = 0 to n - 1 do
      let oid = db.(i) in
      let o = c.objs.(oid) in
      o.dirty <- false;
      if o.transit_until = 0 && o.revoke_for == dummy then begin
        if o.holder == dummy then begin
          let cand = choose c o in
          if cand != dummy then send c o oid ~to_:cand now
        end
        else begin
          match c.policy with
          | Policy.Timestamp { preemption = true } ->
            let holder = o.holder in
            let cand = choose_older_than c holder o in
            if cand != dummy then begin
              if holder.anchor = c.me then begin
                holder.missing <- holder.missing + 1;
                c.preempted <- c.preempted + 1;
                send c o oid ~to_:cand now
              end
              else begin
                (* Cross-shard steal: handshake first, grant on ACK. *)
                o.revoke_for <- cand;
                c.preempted <- c.preempted + 1;
                post net ~set ~src:c.me ~dst:holder.anchor msg_revoke oid
                  holder.id
              end
            end
          | _ -> ()
        end
      end
    done
  end;
  (* 4. Drain committed entries from the age ring eagerly: otherwise
     every transaction ever injected stays reachable through it and a
     10^6-transaction run retains the whole history instead of the
     frontier. *)
  while c.q_len > 0 && not (q_peek c).live do
    q_drop c
  done;
  (* 5. Watchdog: force-grant the oldest local live transaction's objects
     after [patience] idle steps.  With one cell that transaction is the
     engine's oldest and is forced unconditionally.  With several, two
     guards stop the cells' watchdogs from fighting: no force past an
     older waiter, and steals only from a younger holder. *)
  if now - c.last_progress > c.patience then begin
    while c.q_len > 0 && not (q_peek c).live do
      q_drop c
    done;
    if c.q_len = 0 then c.last_progress <- now
    else begin
      let star = q_peek c in
      for i = 0 to Array.length star.objects - 1 do
        let oid = star.objects.(i) in
        if c.owner.(oid) = c.me then begin
          let o = c.objs.(oid) in
          if
            o.transit_until = 0 && o.holder != star && o.revoke_for == dummy
            && (c.shards = 1 || not (has_older_waiter c o star))
          then begin
            if o.holder == dummy then begin
              c.forced <- c.forced + 1;
              send c o oid ~to_:star now
            end
            else if c.shards = 1 || older star o.holder < 0 then begin
              (* Same younger-holder-only rule as msg_force: the holder
                 may be a proxy for a remote transaction older than our
                 local star, and stealing from elders can livelock. *)
              if o.holder.anchor = c.me then begin
                o.holder.missing <- o.holder.missing + 1;
                c.forced <- c.forced + 1;
                send c o oid ~to_:star now
              end
              else begin
                o.revoke_for <- star;
                c.forced <- c.forced + 1;
                post net ~set ~src:c.me ~dst:o.holder.anchor msg_revoke oid
                  o.holder.id
              end
            end
          end
        end
        else
          post net ~set ~src:c.me ~dst:c.owner.(oid) msg_force oid star.id
      done;
      c.last_progress <- now
    end
  end

(* A round on one cell: apply the previous round's messages, then inject
   and step through the round, recording the counters after every step
   for the coordinator's merge. *)
let run_round c (net : net) ~round ~round_steps ~horizon =
  let first = (round * round_steps) + 1 in
  let last = Int.min (first + round_steps - 1) horizon in
  let set = round land 1 in
  apply_inbox c net ~round ~now:first;
  for now = first to last do
    (* This step's arrivals from the buffer the coordinator routed here.
       A loop, not a local recursive function, so a step allocates no
       closure. *)
    while c.arr_head < c.arr_len && c.arr_step.(c.arr_head) <= now do
      let a = c.arr_head in
      c.arr_head <- a + 1;
      let st = c.arr_txn.(a) in
      c.arr_txn.(a) <- no_arrival;
      inject c net ~set ~id:c.arr_id.(a) st
    done;
    run_step c net ~set now;
    c.inj_at.(now - first) <- c.injected;
    c.com_at.(now - first) <- c.committed
  done

(* ------------------------------------------------------------------ *)
(* The coordinator                                                     *)
(* ------------------------------------------------------------------ *)

(* Hand the logged commits to [f] in (step, id) order, the order one
   cell commits in, and empty the logs.  Each cell's log is already in
   that order, so this is a k-way merge over [cursor] and allocates
   nothing. *)
let emit_commits f cells cursor =
  Array.fill cursor 0 (Array.length cursor) 0;
  let more = ref true in
  while !more do
    let best = ref (-1) in
    for i = 0 to Array.length cells - 1 do
      let a = cells.(i).commit_log.a and p = cursor.(i) in
      if p < cells.(i).commit_log.len then
        if !best < 0 then best := i
        else begin
          let b = cells.(!best).commit_log.a and q = cursor.(!best) in
          if a.(p) < b.(q) || (a.(p) = b.(q) && a.(p + 1) < b.(q + 1)) then
            best := i
        end
    done;
    if !best < 0 then more := false
    else begin
      let a = cells.(!best).commit_log.a and p = cursor.(!best) in
      cursor.(!best) <- p + 3;
      f ~id:a.(p + 1) ~node:a.(p + 2) ~step:a.(p)
    end
  done;
  Array.iter (fun c -> c.commit_log.len <- 0) cells

let run_sharded ~who ~policy ~patience ~latency_window ~divergence_cap ~probe
    ~on_commit ~pool ~round_steps ~shards ~owner metric src ~homes ~horizon =
  if patience < 1 then invalid_arg (who ^ ": patience < 1");
  if horizon < 1 then invalid_arg (who ^ ": horizon < 1");
  if divergence_cap < 1 then invalid_arg (who ^ ": divergence_cap < 1");
  if Array.length homes <> Stream.source_num_objects src then
    invalid_arg (who ^ ": homes size mismatch");
  let cells =
    Array.init shards (fun me ->
        make_cell ~me ~shards ~metric ~policy ~patience ~latency_window ~owner
          ~homes ~round_steps ~log_commits:(Option.is_some on_commit))
  in
  let net =
    Array.init 2 (fun _ ->
        Array.init shards (fun _ -> Array.init shards (fun _ -> buf_make ())))
  in
  let cursor = Array.make shards 0 in
  let[@inline] emit () =
    match on_commit with Some f -> emit_commits f cells cursor | None -> ()
  in
  let g_inj = ref 0 and g_com = ref 0 in
  let peak_queue = ref 0 in
  (* Backlog sums over every step, the middle third and the final third
     of the planned horizon (the verdict's segments).  A float array, so
     [sample] updates them without allocating. *)
  let sums = Array.make 3 0.0 in
  let t1 = horizon / 3 and t2 = 2 * horizon / 3 in
  let steps_done = ref 0 in
  let diverged = ref false in
  let[@inline] sample s ~injected ~committed =
    let q = injected - committed in
    g_inj := injected;
    g_com := committed;
    if q > !peak_queue then peak_queue := q;
    sums.(0) <- sums.(0) +. float_of_int q;
    if s > t2 then sums.(2) <- sums.(2) +. float_of_int q
    else if s > t1 then sums.(1) <- sums.(1) +. float_of_int q;
    (match probe with
    | Some f -> f ~step:s ~injected ~committed ~queue:q
    | None -> ());
    steps_done := s;
    if q > divergence_cap then diverged := true
  in
  (* [pending] is the next transaction not yet injected or routed,
     [next_id] its pull-order id.  No closure captures [pending], so
     advancing it is a register move, not a heap write per transaction. *)
  let pending = ref (Stream.pull src) in
  let next_id = ref 0 in
  let finished = ref false in
  if shards = 1 then begin
    (* One cell posts no messages and needs no rounds: it injects
       straight from the source and stops at the exact step. *)
    let c = cells.(0) in
    while (not !finished) && !steps_done < horizon do
      let now = !steps_done + 1 in
      let injecting = ref true in
      while !injecting do
        match !pending with
        | Some st when st.Stream.arrival <= now ->
          inject c net ~set:0 ~id:!next_id st;
          incr next_id;
          pending := Stream.pull src
        | _ -> injecting := false
      done;
      run_step c net ~set:0 now;
      emit ();
      sample now ~injected:c.injected ~committed:c.committed;
      if !diverged || (Option.is_none !pending && !g_inj = !g_com) then
        finished := true
    done
  end
  else begin
    let pool = match pool with Some p -> p | None -> Pool.default () in
    let idxs = List.init shards Fun.id in
    let round = ref 0 in
    (* Allocated once, not per round. *)
    let run_cell i =
      run_round cells.(i) net ~round:!round ~round_steps ~horizon
    in
    (* The coordinator draws the stream a round at a time and routes each
       transaction to the cell owning its first object.  [inject_step] is
       the step the previous transaction enters at; a transaction enters
       at the later of its arrival and that step, which is where the
       one-cell loop above injects it, even from a source whose arrivals
       go backwards. *)
    let inject_step = ref 1 in
    while not !finished do
      let first = (!round * round_steps) + 1 in
      let last = Int.min (first + round_steps - 1) horizon in
      for i = 0 to shards - 1 do
        cells.(i).arr_len <- 0;
        cells.(i).arr_head <- 0
      done;
      let drawing = ref true in
      while !drawing do
        match !pending with
        | Some st when Int.max st.Stream.arrival !inject_step <= last ->
          inject_step := Int.max st.Stream.arrival !inject_step;
          arrive cells.(owner.(List.hd st.Stream.objects)) ~id:!next_id
            ~step:!inject_step st;
          incr next_id;
          pending := Stream.pull src
        | _ -> drawing := false
      done;
      ignore (Pool.map pool run_cell idxs);
      (* The map join is the barrier: every cell's round is complete and
         published.  Merge the per-step counters in step order; early
         exits take effect at the round's end. *)
      for s = first to last do
        let inj = ref 0 and com = ref 0 in
        for i = 0 to shards - 1 do
          inj := !inj + cells.(i).inj_at.(s - first);
          com := !com + cells.(i).com_at.(s - first)
        done;
        sample s ~injected:!inj ~committed:!com
      done;
      emit ();
      if
        !diverged
        || (Option.is_none !pending && !g_inj = !g_com)
        || last >= horizon
      then finished := true;
      incr round
    done
  end;
  let hsteps = !steps_done in
  let verdict =
    if !diverged then Diverging
    else if hsteps < horizon then Bounded (* drained a finite source *)
    else begin
      let mean_mid = sums.(1) /. float_of_int (max 1 (t2 - t1)) in
      let mean_last = sums.(2) /. float_of_int (max 1 (horizon - t2)) in
      if mean_last <= (1.35 *. mean_mid) +. 4.0 then Bounded else Diverging
    end
  in
  let latq =
    if shards = 1 then cells.(0).latq
    else
      Window.merge ~capacity:latency_window
        (Array.to_list (Array.map (fun c -> c.latq) cells))
  in
  let lat = latency_percentiles latq in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 cells in
  {
    horizon = hsteps;
    injected = !g_inj;
    committed = !g_com;
    final_queue = !g_inj - !g_com;
    peak_queue = !peak_queue;
    mean_queue = (if hsteps = 0 then 0.0 else sums.(0) /. float_of_int hsteps);
    latency_p50 = lat.(0);
    latency_p99 = lat.(1);
    latency_p999 = lat.(2);
    max_latency =
      Array.fold_left (fun acc (c : cell) -> max acc c.max_latency) 0 cells;
    total_travel = sum (fun c -> c.travel);
    forced_grants = sum (fun c -> c.forced);
    preemptions = sum (fun c -> c.preempted);
    verdict;
  }

let run ?(policy = Policy.Timestamp { preemption = false }) ?(patience = 50)
    ?(latency_window = 65536) ?(divergence_cap = 10_000) ?probe ?on_commit
    metric src ~homes ~horizon =
  run_sharded ~who:"Open_system.run" ~policy ~patience ~latency_window
    ~divergence_cap ~probe ~on_commit ~pool:None ~round_steps:1 ~shards:1
    ~owner:(Array.make (Array.length homes) 0)
    metric src ~homes ~horizon

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
