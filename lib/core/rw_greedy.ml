let conflict_pairs rw =
  let inst = Rw_instance.base rw in
  let out = ref [] in
  for o = 0 to Instance.num_objects inst - 1 do
    let writers = Rw_instance.writers rw o in
    let add u v = if u <> v then out := (min u v, max u v) :: !out in
    Array.iteri
      (fun i u ->
        for j = i + 1 to Array.length writers - 1 do
          add u writers.(j)
        done;
        Array.iter (add u) (Rw_instance.readers rw o))
      writers
  done;
  List.sort_uniq compare !out

let schedule ?strategy ?order metric rw =
  let inst = Rw_instance.base rw in
  let n = Instance.n inst in
  let dep = Dependency.of_pairs metric inst (conflict_pairs rw) in
  let colors = (Coloring.greedy ?strategy ?order dep inst).Coloring.colors in
  (* Shift so home-sourced copies arrive in time: first writers, and
     readers that precede every writer of their object. *)
  let shift = ref 0 in
  let bump node o =
    let need =
      max 1 (Dtm_graph.Metric.dist metric (Instance.home inst o) node)
      - colors.(node)
    in
    if need > !shift then shift := need
  in
  for o = 0 to Instance.num_objects inst - 1 do
    let writers = Rw_instance.writers rw o in
    let first_writer_color =
      Array.fold_left (fun acc wv -> min acc colors.(wv)) max_int writers
    in
    Array.iter
      (fun wv -> if colors.(wv) = first_writer_color then bump wv o)
      writers;
    Array.iter
      (fun r -> if colors.(r) < first_writer_color then bump r o)
      (Rw_instance.readers rw o)
  done;
  let sched = Schedule.create ~n in
  Array.iter
    (fun v -> Schedule.set sched ~node:v ~time:(colors.(v) + !shift))
    (Instance.txn_nodes inst);
  sched
