module Instance = Dtm_core.Instance
module Schedule = Dtm_core.Schedule
module Graph = Dtm_graph.Graph
module Metric = Dtm_graph.Metric

type result = {
  ok : bool;
  errors : string list;
  makespan : int;
  messages : int;
  hops : int;
  total_wait : int;
  trace : Trace.t;
}

(* Per-domain scratch: the event arena and the path buffer are grown once
   and reused across runs, so a steady-state replay with a warm shared
   router allocates nothing on the hop-by-hop path (the trace snapshot
   and result record are the only per-run allocations). *)
type scratch = { arena : Event_arena.t; mutable path : int array }

let scratch_key =
  Domain.DLS.new_key (fun () -> { arena = Event_arena.create (); path = [||] })

(* What a leg rule writes to: the run's events, counters and errors. *)
type run = {
  arena : Event_arena.t;
  mutable messages : int;
  mutable hops : int;
  mutable errors : string list;
}

let error (r : run) fmt = Printf.ksprintf (fun s -> r.errors <- s :: r.errors) fmt

(* Object [o] crosses the edge [a]-[b] of weight [w], leaving at the end
   of step [t]. *)
let hop (r : run) o a b w t =
  Event_arena.emit_depart r.arena ~obj:o ~node:a ~dest:b ~time:t;
  Event_arena.emit_arrive r.arena ~obj:o ~node:b ~time:(t + w);
  r.messages <- r.messages + w;
  r.hops <- r.hops + 1

(* The itinerary loop shared by both leg rules.  [leg r o src dst
   release] moves object [o] hop by hop from [src] to [dst], leaving at
   the end of step [release], and returns the arrival step. *)
let execute arena leg inst sched =
  Event_arena.clear arena;
  let r = { arena; messages = 0; hops = 0; errors = [] } in
  let total_wait = ref 0 in
  (* Transactions must all be scheduled. *)
  Array.iter
    (fun v ->
      match Schedule.time sched v with
      | Some t -> Event_arena.emit_execute arena ~node:v ~time:t
      | None -> error r "transaction at node %d is unscheduled" v)
    (Instance.txn_nodes inst);
  (* Per-object replay along its visit order. *)
  for o = 0 to Instance.num_objects inst - 1 do
    let reqs = Instance.requesters inst o in
    let all_scheduled = Array.for_all (fun v -> Schedule.time sched v <> None) reqs in
    if Array.length reqs > 0 && all_scheduled then begin
      let order = Schedule.object_order sched ~requesters:reqs in
      let pos = ref (Instance.home inst o) and release = ref 0 in
      List.iter
        (fun v ->
          let t = Schedule.time_exn sched v in
          let arrival = if v = !pos then !release else leg r o !pos v !release in
          if arrival > t then
            error r "object %d reaches node %d at step %d but it executes at %d" o
              v arrival t
          else if t < 1 then error r "object %d used at invalid step %d" o t
          else total_wait := !total_wait + (t - max arrival 0);
          pos := v;
          release := t)
        order
    end
  done;
  let trace = Trace.of_arena arena in
  {
    ok = r.errors = [];
    errors = List.rev r.errors;
    makespan = Schedule.makespan sched;
    messages = r.messages;
    hops = r.hops;
    total_wait = !total_wait;
    trace;
  }

(* Along the router's shortest path.  The chain is written into a
   suffix of the scratch buffer (parent pointers give it back to front),
   and each hop's weight is the distance difference of its endpoints
   along the tree — no edge scan, no path list. *)
let router_leg router path g_n r o src dst release =
  let s = Router.source router src in
  let dist = s.Router.dist and parent = s.Router.parent in
  if dist.(dst) = max_int then invalid_arg "Router.route: unreachable";
  let i = ref (g_n - 1) in
  let v = ref dst in
  while !v <> src do
    path.(!i) <- !v;
    decr i;
    v := Array.unsafe_get parent !v
  done;
  path.(!i) <- src;
  let t = ref release in
  for j = !i to g_n - 2 do
    let a = Array.unsafe_get path j and b = Array.unsafe_get path (j + 1) in
    let w = Array.unsafe_get dist b - Array.unsafe_get dist a in
    hop r o a b w !t;
    t := !t + w
  done;
  !t

let run ?router graph inst sched =
  let router =
    match router with
    | Some r ->
      if not (Router.graph r == graph) then
        invalid_arg "Replay.run: router was built for a different graph";
      r
    | None -> Router.create graph
  in
  let sc = Domain.DLS.get scratch_key in
  let g_n = Graph.n graph in
  if Array.length sc.path < g_n then sc.path <- Array.make (max g_n 1) 0;
  execute sc.arena (router_leg router sc.path g_n) inst sched

(* Greedy metric descent: each hop takes the first CSR neighbour on a
   shortest path, so the leg's total weight is exactly [dist src dst]
   and progress is guaranteed (the remaining distance drops by >= 1 per
   hop). *)
let metric_leg (off, targets, weights) metric r o src dst release =
  let t = ref release and u = ref src and stuck = ref false in
  while !u <> dst && not !stuck do
    let rem = Metric.unsafe_dist metric !u dst in
    let hi = off.(!u + 1) in
    let next = ref (-1) and nw = ref 0 in
    let i = ref off.(!u) in
    while !next < 0 && !i < hi do
      let v = Array.unsafe_get targets !i in
      let w = Array.unsafe_get weights !i in
      if w + Metric.unsafe_dist metric v dst = rem then begin
        next := v;
        nw := w
      end;
      incr i
    done;
    if !next < 0 then begin
      error r "object %d: no shortest-path hop from %d toward %d" o !u dst;
      stuck := true
    end
    else begin
      hop r o !u !next !nw !t;
      t := !t + !nw;
      u := !next
    end
  done;
  !t

let walk graph metric inst sched =
  if Metric.size metric <> Graph.n graph then
    invalid_arg "Replay.walk: metric size <> graph size";
  let sc = Domain.DLS.get scratch_key in
  execute sc.arena (metric_leg (Graph.csr graph) metric) inst sched
