module Prng = Dtm_util.Prng
module Pool = Dtm_util.Pool
module Window = Dtm_util.Stats.Window

(* Stateless splitmix placement of objects onto shards, the same
   finalizer recipe as [Injection.home_of] with its own base so the two
   partitions are independent.  Every cell, test and tool can recompute
   it without sharing state. *)
let shard_of ~shards o =
  if shards < 1 then invalid_arg "Sharded.shard_of: shards < 1";
  if shards = 1 then 0
  else begin
    let z = 0x73686172 + (o * 0x9e3779b9) in
    let z = (z lxor (z lsr 30)) * 0x2545F4914F6CDD1D in
    let z = (z lxor (z lsr 27)) * 0x2545F4914F6CDD1D in
    let z = (z lxor (z lsr 31)) land max_int in
    z mod shards
  end

let anchor_of ~shards st = shard_of ~shards (List.hd st.Stream.objects)

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
(* Cell state: one frontier-only sub-engine per shard                  *)
(* ------------------------------------------------------------------ *)

(* The waiter record covers both roles: a transaction anchored at this
   cell (full object set, authoritative [missing] count) and a proxy for
   a remote transaction waiting on one object owned here ([objects] is
   that single object, [anchor] names the shard that owns the
   lifecycle). *)
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

type obj = {
  mutable pos : int;
  mutable holder : txn;
  mutable dest : int;
  mutable transit_until : int; (* 0 = landed *)
  mutable whead : int;
  mutable wtail : int;
  mutable wcount : int;
  mutable dirty : bool;
  (* A REVOKE for the current holder is in flight: the object must not
     move or be re-stolen until the holder's anchor answers (ACK) or
     commits (RELEASE) — that handshake is what keeps committed prefixes
     physically consistent under cross-shard preemption.  [revoke_for]
     is the waiter the revocation was issued for: the ACK grants to it
     directly, as the unsharded engine's force does, rather than letting
     the policy's free-object choice (e.g. Nearest) hand the object
     straight back to the revokee. *)
  mutable revoking : bool;
  mutable revoke_for : txn;
}

let older a b =
  match compare a.arrival b.arrival with 0 -> compare a.id b.id | c -> c

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
  (* intrusive waiter pool (see Open_system) *)
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
  mutable live_count : int;
  mutable travel : int;
  mutable forced : int;
  mutable preempted : int;
  latq : Window.t;
  mutable max_latency : int;
  mutable last_progress : int;
  mutable monotone : bool;
  mutable last_reg_arrival : int;
  (* per-round logs, read by the driver at the barrier *)
  inj_delta : int array; (* injections per step offset within the round *)
  com_delta : int array;
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
          revoking = false;
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
    live_count = 0;
    travel = 0;
    forced = 0;
    preempted = 0;
    latq = Window.create latency_window;
    max_latency = 0;
    last_progress = 0;
    monotone = true;
    last_reg_arrival = min_int;
    inj_delta = Array.make round_steps 0;
    com_delta = Array.make round_steps 0;
    log_commits;
    commit_log = buf_make ();
  }

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

let remote_remove c t =
  let s = t.id land (Array.length c.remote - 1) in
  if c.remote.(s) == t then c.remote.(s) <- dummy

(* ---- waiter pool ------------------------------------------------- *)

let walloc c t =
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

let wlink c o e =
  c.w_prev.(e) <- -1;
  c.w_next.(e) <- o.whead;
  if o.whead >= 0 then c.w_prev.(o.whead) <- e else o.wtail <- e;
  o.whead <- e;
  o.wcount <- o.wcount + 1

let wunlink c o e =
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

let q_push c t =
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

let commit_push c t =
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

(* ---- policy choice (same candidate order as Open_system) ---------- *)

let choose c o =
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
      let key cand =
        let w = Policy.window_index ~window ~arrival:cand.arrival in
        (w, Policy.window_priority ~seed ~window_id:w ~id:cand.id)
      in
      let best = ref c.w_txn.(head) in
      let best_k = ref (key !best) in
      let e = ref c.w_next.(head) in
      while !e >= 0 do
        let cand = c.w_txn.(!e) in
        let kc = key cand in
        if kc < !best_k || (kc = !best_k && older cand !best < 0) then begin
          best := cand;
          best_k := kc
        end;
        e := c.w_next.(!e)
      done;
      !best
  end

let choose_older_than c holder o =
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
let deliver c (net : net) ~set oid =
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
  mark_dirty c oid

let register_waiter c t oid =
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
            o.revoking <- false;
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
          if o.revoking && o.holder != dummy && o.holder.id = id then begin
            o.holder <- dummy;
            o.revoking <- false;
            let star = o.revoke_for in
            o.revoke_for <- dummy;
            (* Live waiters stay linked until commit or release, so a
               live [star] still wants the object: grant it directly. *)
            if star != dummy && star.live then send c o oid ~to_:star now
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
          if e >= 0 && o.transit_until = 0 && not o.revoking then begin
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
                o.revoking <- true;
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

let run_step c (net : net) ~set ~first now =
  (* 1. Inject this step's arrivals from the buffer the coordinator routed
     here (ids are global pull-order ids).  A loop, not a local
     recursive function, so a step allocates no closure. *)
  while c.arr_head < c.arr_len && c.arr_step.(c.arr_head) <= now do
    let a = c.arr_head in
    c.arr_head <- a + 1;
    let st = c.arr_txn.(a) and gid = c.arr_id.(a) in
    c.arr_txn.(a) <- no_arrival;
    let k = List.length st.Stream.objects in
    let t =
      {
        id = gid;
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
    c.live_count <- c.live_count + 1;
    c.inj_delta.(now - first) <- c.inj_delta.(now - first) + 1;
    q_push c t;
    let remote = ref false in
    for i = 0 to k - 1 do
      let oid = t.objects.(i) in
      if c.owner.(oid) = c.me then t.wslots.(i) <- register_waiter c t oid
      else begin
        remote := true;
        post4 net ~set ~src:c.me ~dst:c.owner.(oid) msg_request oid gid t.node
          t.arrival
      end
    done;
    if !remote then remote_add c t
  done;
  (* 2. Deliver this step's calendar bucket. *)
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
  (* 3. Commit (ascending id).  [missing] can have bounced back above
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
        c.live_count <- c.live_count - 1;
        c.committed <- c.committed + 1;
        c.com_delta.(now - first) <- c.com_delta.(now - first) + 1;
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
            if o.holder == t then begin
              o.holder <- dummy;
              o.revoking <- false;
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
  (* 4. Grant dirty owned objects (ascending object id). *)
  if c.dirty_n > 0 then begin
    let n = c.dirty_n in
    c.dirty_n <- 0;
    let db = c.dirty_buf in
    isort_int db n;
    for i = 0 to n - 1 do
      let oid = db.(i) in
      let o = c.objs.(oid) in
      o.dirty <- false;
      if o.transit_until = 0 && not o.revoking then begin
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
                o.revoking <- true;
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
  (* 5. Drain dead ring heads eagerly (frontier-only retention). *)
  while c.q_len > 0 && not (q_peek c).live do
    q_drop c
  done;
  (* 6. Watchdog for the oldest local live transaction. *)
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
            o.transit_until = 0 && o.holder != star && (not o.revoking)
            && not (has_older_waiter c o star)
          then begin
            if o.holder == dummy then begin
              c.forced <- c.forced + 1;
              send c o oid ~to_:star now
            end
            else if older star o.holder < 0 then begin
              (* Same younger-holder-only rule as msg_force: the holder
                 may be a proxy for a remote transaction older than our
                 local star, and stealing from elders can livelock. *)
              if o.holder.anchor = c.me then begin
                o.holder.missing <- o.holder.missing + 1;
                c.forced <- c.forced + 1;
                send c o oid ~to_:star now
              end
              else begin
                o.revoking <- true;
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

let run_round c (net : net) ~round ~round_steps ~horizon =
  let first = (round * round_steps) + 1 in
  let last = Int.min (first + round_steps - 1) horizon in
  Array.fill c.inj_delta 0 round_steps 0;
  Array.fill c.com_delta 0 round_steps 0;
  c.commit_log.len <- 0;
  let set = round land 1 in
  apply_inbox c net ~round ~now:first;
  for now = first to last do
    run_step c net ~set ~first now
  done

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

let run ?(policy = Policy.Timestamp { preemption = false }) ?(patience = 50)
    ?(latency_window = 65536) ?(divergence_cap = 10_000) ?probe ?on_commit
    ?pool ?(round_steps = 4) ~shards metric make_source ~homes ~horizon =
  if shards < 1 then invalid_arg "Sharded.run: shards < 1";
  if round_steps < 1 then invalid_arg "Sharded.run: round_steps < 1";
  if shards = 1 then
    (* One shard IS the open system: delegate, byte-identically. *)
    Open_system.run ~policy ~patience ~latency_window ~divergence_cap ?probe
      ?on_commit metric (make_source ()) ~homes ~horizon
  else begin
    if patience < 1 then invalid_arg "Sharded.run: patience < 1";
    if horizon < 1 then invalid_arg "Sharded.run: horizon < 1";
    if divergence_cap < 1 then invalid_arg "Sharded.run: divergence_cap < 1";
    let pool = match pool with Some p -> p | None -> Pool.default () in
    let num_objects = Array.length homes in
    let owner = Array.init num_objects (shard_of ~shards) in
    let src = make_source () in
    if num_objects <> Stream.source_num_objects src then
      invalid_arg "Sharded.run: homes size mismatch";
    let log_commits = Option.is_some on_commit in
    let cells =
      Array.init shards (fun me ->
        make_cell ~me ~shards ~metric ~policy ~patience ~latency_window
          ~owner ~homes ~round_steps ~log_commits)
    in
    let net =
      Array.init 2 (fun _ ->
        Array.init shards (fun _ -> Array.init shards (fun _ -> buf_make ())))
    in
    let idxs = List.init shards Fun.id in
    let g_inj = ref 0 and g_com = ref 0 in
    let peak_queue = ref 0 in
    let queue_sum = ref 0.0 in
    let t1 = horizon / 3 and t2 = 2 * horizon / 3 in
    let sum_mid = ref 0.0 and sum_last = ref 0.0 in
    let steps_done = ref 0 in
    let diverged = ref false in
    let finished = ref false in
    let round = ref 0 in
    (* The stream is drawn once, by the coordinator, a round at a time:
       [pending] is the next transaction not yet routed, [next_id] its
       pull-order id and [inject_step] the step its predecessor enters
       at.  A transaction enters at the later of its arrival and that
       step, which is where an engine pulling at every step injects it,
       even from a source whose arrivals go backwards. *)
    let pending = ref (Stream.pull src) in
    let next_id = ref 0 in
    let inject_step = ref 1 in
    let draw ~last =
      for i = 0 to shards - 1 do
        cells.(i).arr_len <- 0;
        cells.(i).arr_head <- 0
      done;
      let drawing = ref true in
      while !drawing do
        match !pending with
        | Some st ->
          let step =
            if st.Stream.arrival > !inject_step then st.Stream.arrival
            else !inject_step
          in
          if step <= last then begin
            inject_step := step;
            arrive cells.(anchor_of ~shards st) ~id:!next_id ~step st;
            incr next_id;
            pending := Stream.pull src
          end
          else drawing := false
        | None -> drawing := false
      done
    in
    (* Allocated once, not per round. *)
    let run_cell i = run_round cells.(i) net ~round:!round ~round_steps ~horizon in
    (* Merge scratch for on_commit: triples gathered across cells and
       sorted by (step, id) — the same per-step ascending-id order the
       unsharded engine reports. *)
    let merge_commits () =
      match on_commit with
      | None -> ()
      | Some f ->
        let total =
          Array.fold_left (fun acc c -> acc + (c.commit_log.len / 3)) 0 cells
        in
        if total > 0 then begin
          let trip = Array.make total (0, 0, 0) in
          let j = ref 0 in
          Array.iter
            (fun c ->
              let bf = c.commit_log in
              let i = ref 0 in
              while !i < bf.len do
                trip.(!j) <- (bf.a.(!i), bf.a.(!i + 1), bf.a.(!i + 2));
                incr j;
                i := !i + 3
              done)
            cells;
          Array.sort compare trip;
          Array.iter (fun (step, id, node) -> f ~id ~node ~step) trip
        end
    in
    while not !finished do
      let first = (!round * round_steps) + 1 in
      let last = Int.min (first + round_steps - 1) horizon in
      draw ~last;
      ignore (Pool.map pool run_cell idxs);
      (* The map join is the barrier: every cell's round is complete and
         published.  Merge the per-step deltas in step order. *)
      for s = first to last do
        let off = s - first in
        let di = ref 0 and dc = ref 0 in
        for i = 0 to shards - 1 do
          di := !di + cells.(i).inj_delta.(off);
          dc := !dc + cells.(i).com_delta.(off)
        done;
        g_inj := !g_inj + !di;
        g_com := !g_com + !dc;
        let q = !g_inj - !g_com in
        if q > !peak_queue then peak_queue := q;
        queue_sum := !queue_sum +. float_of_int q;
        if s > t2 then sum_last := !sum_last +. float_of_int q
        else if s > t1 then sum_mid := !sum_mid +. float_of_int q;
        (match probe with
        | Some f -> f ~step:s ~injected:!g_inj ~committed:!g_com ~queue:q
        | None -> ());
        steps_done := s;
        if q > divergence_cap then diverged := true
      done;
      merge_commits ();
      if !diverged then finished := true
      else if Option.is_none !pending && !g_inj - !g_com = 0 then
        finished := true
      else if last >= horizon then finished := true;
      incr round
    done;
    let hsteps = !steps_done in
    let verdict =
      if !diverged then Open_system.Diverging
      else if hsteps < horizon then Open_system.Bounded
      else begin
        let mean_mid = !sum_mid /. float_of_int (max 1 (t2 - t1)) in
        let mean_last = !sum_last /. float_of_int (max 1 (horizon - t2)) in
        if mean_last <= (1.35 *. mean_mid) +. 4.0 then Open_system.Bounded
        else Open_system.Diverging
      end
    in
    let latq =
      Window.merge ~capacity:latency_window
        (Array.to_list (Array.map (fun c -> c.latq) cells))
    in
    let lat = Open_system.latency_percentiles latq in
    let sum f = Array.fold_left (fun acc c -> acc + f c) 0 cells in
    {
      Open_system.horizon = hsteps;
      injected = !g_inj;
      committed = !g_com;
      final_queue = !g_inj - !g_com;
      peak_queue = !peak_queue;
      mean_queue =
        (if hsteps = 0 then 0.0 else !queue_sum /. float_of_int hsteps);
      latency_p50 = lat.(0);
      latency_p99 = lat.(1);
      latency_p999 = lat.(2);
      max_latency = Array.fold_left (fun acc c -> max acc c.max_latency) 0 cells;
      total_travel = sum (fun c -> c.travel);
      forced_grants = sum (fun c -> c.forced);
      preemptions = sum (fun c -> c.preempted);
      verdict;
    }
  end

