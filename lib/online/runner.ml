type stats = {
  makespan : int;
  completed : int;
  mean_response : float;
  p95_response : float;
  total_travel : int;
  forced_grants : int;
  preemptions : int;
}

type txn = {
  id : int;
  node : int;
  objects : int array;
  arrival : int;
  ready : int; (* step it was issued *)
  mutable done_ : bool;
}

type obj = {
  mutable pos : int;
  mutable granted : txn option;
  mutable dest : int;
  mutable transit_until : int; (* 0 = not in transit *)
}

let run ?(policy = Policy.Timestamp { preemption = false }) ?(patience = 50)
    metric stream ~homes =
  if Array.length homes <> Stream.num_objects stream then
    invalid_arg "Runner.run: homes size mismatch";
  if patience < 1 then invalid_arg "Runner.run: patience < 1";
  let rng =
    match policy with
    | Policy.Random_grant seed | Policy.Backoff { seed; _ } ->
      Dtm_util.Prng.create ~seed
    | Policy.Timestamp _ | Policy.Nearest | Policy.Window_greedy _ ->
      Dtm_util.Prng.create ~seed:0
  in
  let n = Stream.n stream in
  (* Transactions are pulled lazily: a node's next transaction record is
     allocated only when it is issued, so at most [n] records are live at
     once.  Ids stay node-major (node v's j-th transaction is
     [offsets.(v) + j]); because each node holds at most one live
     transaction, scanning nodes in order visits live transactions in
     ascending id order — the same candidate order the materialized
     executor produced. *)
  let pending = Array.init n (fun v -> ref (Stream.queue_at stream v)) in
  let offsets = Array.make n 0 in
  let total = ref 0 in
  for v = 0 to n - 1 do
    offsets.(v) <- !total;
    total := !total + List.length !(pending.(v))
  done;
  let total = !total in
  let issued = Array.make n 0 in
  let current : txn option array = Array.make n None in
  let last_commit = Array.make n (-1) in
  let objs =
    Array.map
      (fun h -> { pos = h; granted = None; dest = h; transit_until = 0 })
      homes
  in
  let completed = ref 0 in
  let travel = ref 0 and forced = ref 0 and preempted = ref 0 in
  let makespan = ref 0 in
  let responses = ref [] in
  let older a b =
    match compare a.arrival b.arrival with 0 -> compare a.id b.id | c -> c
  in
  let holds o t = match o.granted with Some g -> g.id = t.id | None -> false in
  (* Live transactions that request object [oid] but do not hold it, in
     ascending id order. *)
  let waiters o oid =
    let acc = ref [] in
    for v = n - 1 downto 0 do
      match current.(v) with
      | Some t when Array.exists (fun x -> x = oid) t.objects && not (holds o t)
        ->
        acc := t :: !acc
      | _ -> ()
    done;
    !acc
  in
  let send o ~to_ now =
    let d = Dtm_graph.Metric.dist metric o.pos to_.node in
    o.granted <- Some to_;
    o.dest <- to_.node;
    o.transit_until <- now + max 1 d;
    travel := !travel + d
  in
  let choose o candidates =
    match candidates with
    | [] -> None
    | _ -> (
      match policy with
      | Policy.Timestamp _ ->
        List.fold_left
          (fun acc c ->
            match acc with
            | None -> Some c
            | Some b -> if older c b < 0 then Some c else acc)
          None candidates
      | Policy.Nearest ->
        let dist c = Dtm_graph.Metric.dist metric o.pos c.node in
        List.fold_left
          (fun acc c ->
            match acc with
            | None -> Some c
            | Some b ->
              if dist c < dist b || (dist c = dist b && older c b < 0) then
                Some c
              else acc)
          None candidates
      | Policy.Random_grant _ | Policy.Backoff _ ->
        Some (Dtm_util.Prng.choose_list rng candidates)
      | Policy.Window_greedy { window; seed } ->
        let key c =
          let w = Policy.window_index ~window ~arrival:c.arrival in
          (w, Policy.window_priority ~seed ~window_id:w ~id:c.id)
        in
        List.fold_left
          (fun acc c ->
            match acc with
            | None -> Some c
            | Some b ->
              let kc = key c and kb = key b in
              if kc < kb || (kc = kb && older c b < 0) then Some c else acc)
          None candidates)
  in
  let t = ref 0 in
  let last_progress = ref 0 in
  let step_cap = 1_000_000 in
  while !completed < total do
    incr t;
    if !t > step_cap then failwith "Runner.run: step cap exceeded";
    let now = !t in
    (* 1. Issue: a node whose previous transaction committed before this
       step pulls its next queued transaction once the arrival step has
       passed. *)
    for v = 0 to n - 1 do
      if current.(v) = None then begin
        match !(pending.(v)) with
        | st :: rest
          when now >= st.Stream.arrival
               && (issued.(v) = 0 || last_commit.(v) < now) ->
          let r =
            {
              id = offsets.(v) + issued.(v);
              node = v;
              objects = Array.of_list st.Stream.objects;
              arrival = st.Stream.arrival;
              ready = now;
              done_ = false;
            }
          in
          pending.(v) := rest;
          issued.(v) <- issued.(v) + 1;
          current.(v) <- Some r;
          last_progress := now
        | _ -> ()
      end
    done;
    (* 2. Deliver. *)
    Array.iter
      (fun o ->
        if o.transit_until <> 0 && o.transit_until <= now then begin
          o.pos <- o.dest;
          o.transit_until <- 0;
          last_progress := now
        end)
      objs;
    (* 3. Execute. *)
    for v = 0 to n - 1 do
      match current.(v) with
      | Some txn ->
        let ready_to_commit =
          Array.for_all
            (fun oid ->
              let o = objs.(oid) in
              holds o txn && o.transit_until = 0 && o.pos = txn.node)
            txn.objects
        in
        if ready_to_commit then begin
          txn.done_ <- true;
          if now > !makespan then makespan := now;
          responses := float_of_int (now - txn.ready + 1) :: !responses;
          incr completed;
          last_commit.(v) <- now;
          current.(v) <- None;
          Array.iter (fun oid -> objs.(oid).granted <- None) txn.objects;
          last_progress := now
        end
      | None -> ()
    done;
    (* 4. Grant free objects; preempt if the policy allows. *)
    Array.iteri
      (fun oid o ->
        if o.transit_until = 0 then begin
          match o.granted with
          | None -> (
            match choose o (waiters o oid) with
            | Some c -> send o ~to_:c now
            | None -> ())
          | Some holder -> (
            match policy with
            | Policy.Timestamp { preemption = true } when not holder.done_ -> (
              let ws =
                List.filter (fun c -> older c holder < 0) (waiters o oid)
              in
              match choose o ws with
              | Some c ->
                incr preempted;
                send o ~to_:c now
              | None -> ())
            | _ -> ())
        end)
      objs;
    (* 5. Watchdog: break waits-for cycles by force-granting the oldest
       waiting transaction's objects. *)
    if now - !last_progress > patience && !completed < total then begin
      let oldest =
        Array.fold_left
          (fun acc cur ->
            match cur with
            | Some txn -> (
              match acc with
              | None -> Some txn
              | Some b -> if older txn b < 0 then Some txn else acc)
            | None -> acc)
          None current
      in
      match oldest with
      | None ->
        (* No waiting transaction: arrivals are just sparse; wait on. *)
        last_progress := now
      | Some star ->
        Array.iter
          (fun oid ->
            let o = objs.(oid) in
            if (not (holds o star)) && o.transit_until = 0 then begin
              incr forced;
              send o ~to_:star now
            end)
          star.objects;
        last_progress := now
    end
  done;
  let resp = Array.of_list !responses in
  let summary f = if Array.length resp = 0 then 0.0 else f resp in
  {
    makespan = !makespan;
    completed = !completed;
    mean_response = summary Dtm_util.Stats.mean;
    p95_response = summary (fun r -> Dtm_util.Stats.percentile r 95.0);
    total_travel = !travel;
    forced_grants = !forced;
    preemptions = !preempted;
  }
