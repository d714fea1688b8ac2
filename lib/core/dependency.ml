type t = {
  conflicts : (int * int) array array; (* per node: (neighbor, weight) *)
  hmax : int;
  max_degree : int;
  num_conflicts : int;
}

(* LSD radix sort (8-bit digits) of the first [m] cells of [keys],
   ascending.  Keys are non-negative (encoded node pairs), so digit
   extraction by shift-and-mask is exact; pass count adapts to the
   largest key. *)
let radix_sort keys m =
  if m > 1 then begin
    let tmp = Array.make m 0 in
    let count = Array.make 256 0 in
    let maxk = ref 0 in
    for i = 0 to m - 1 do
      let k = Array.unsafe_get keys i in
      if k > !maxk then maxk := k
    done;
    let src = ref keys and dst = ref tmp in
    let shift = ref 0 in
    while !maxk lsr !shift > 0 do
      Array.fill count 0 256 0;
      let src_a = !src and dst_a = !dst in
      for i = 0 to m - 1 do
        let d = (Array.unsafe_get src_a i lsr !shift) land 255 in
        Array.unsafe_set count d (Array.unsafe_get count d + 1)
      done;
      let sum = ref 0 in
      for d = 0 to 255 do
        let c = Array.unsafe_get count d in
        Array.unsafe_set count d !sum;
        sum := !sum + c
      done;
      for i = 0 to m - 1 do
        let k = Array.unsafe_get src_a i in
        let d = (k lsr !shift) land 255 in
        Array.unsafe_set dst_a (Array.unsafe_get count d) k;
        Array.unsafe_set count d (Array.unsafe_get count d + 1)
      done;
      src := dst_a;
      dst := src_a;
      shift := !shift + 8
    done;
    if !src != keys then Array.blit !src 0 keys 0 m
  end

(* Conflict edges are discovered as node pairs.  Instead of hashing
   boxed (u, v) tuples, each pair is encoded as the canonical int key
   [min u v * n + max u v] — canonicalization makes the dedup robust to
   the orientation a pair arrives in, so a shared pair can never double
   an edge — and the whole batch is deduplicated by one radix sort over
   a flat int array.  Distances are looked up once per unique edge, and
   adjacency arrays are preallocated from exact degree counts.  [of_keys]
   builds H from the first [m] keys of [keys] (reordered in place). *)
let key ~n u v = if u < v then (u * n) + v else (v * n) + u

let of_keys metric n keys m =
  radix_sort keys m;
  let deg = Array.make (max 1 n) 0 in
  let uniq = ref 0 in
  let prev = ref (-1) in
  for i = 0 to m - 1 do
    let key = Array.unsafe_get keys i in
    if key <> !prev then begin
      prev := key;
      Array.unsafe_set keys !uniq key;
      incr uniq;
      let u = key / n and v = key mod n in
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1
    end
  done;
  let conflicts = Array.init n (fun v -> Array.make deg.(v) (0, 0)) in
  let fill = Array.make (max 1 n) 0 in
  let hmax = ref 0 in
  let in_range = Dtm_graph.Metric.size metric >= n in
  for i = 0 to !uniq - 1 do
    let key = keys.(i) in
    let u = key / n and v = key mod n in
    let w =
      (* Nodes are validated (by Instance or [of_pairs]), so when the
         metric covers the instance the bounds check is redundant; fall
         back to the checked lookup (and its exception) on undersized
         metrics. *)
      if in_range then Dtm_graph.Metric.unsafe_dist metric u v else Dtm_graph.Metric.dist metric u v
    in
    if w > !hmax then hmax := w;
    conflicts.(u).(fill.(u)) <- (v, w);
    fill.(u) <- fill.(u) + 1;
    conflicts.(v).(fill.(v)) <- (u, w);
    fill.(v) <- fill.(v) + 1
  done;
  let max_degree =
    Array.fold_left (fun acc a -> max acc (Array.length a)) 0 conflicts
  in
  { conflicts; hmax = !hmax; max_degree; num_conflicts = !uniq }

(* One key per requester pair of every object: a pair sharing several
   objects appears once per object and the dedup folds it. *)
let build metric inst =
  let n = Instance.n inst in
  let num_objects = Instance.num_objects inst in
  let total = ref 0 in
  for o = 0 to num_objects - 1 do
    let len = Array.length (Instance.requesters inst o) in
    total := !total + (len * (len - 1) / 2)
  done;
  let keys = Array.make (max 1 !total) 0 in
  let idx = ref 0 in
  for o = 0 to num_objects - 1 do
    let reqs = Instance.requesters inst o in
    let len = Array.length reqs in
    for i = 0 to len - 1 do
      let u = Array.unsafe_get reqs i in
      for j = i + 1 to len - 1 do
        Array.unsafe_set keys !idx (key ~n u (Array.unsafe_get reqs j));
        incr idx
      done
    done
  done;
  of_keys metric n keys !total

let of_pairs metric inst pairs =
  let n = Instance.n inst in
  let keys =
    Array.of_list
      (List.map
         (fun (u, v) ->
           if u = v || u < 0 || v < 0 || u >= n || v >= n then
             invalid_arg "Dependency.of_pairs: pair out of range";
           key ~n u v)
         pairs)
  in
  of_keys metric n keys (Array.length keys)

let conflicts t v =
  if v < 0 || v >= Array.length t.conflicts then
    invalid_arg "Dependency.conflicts: node out of range";
  t.conflicts.(v)

let hmax t = t.hmax
let max_degree t = t.max_degree
let weighted_degree t = t.hmax * t.max_degree
let num_conflicts t = t.num_conflicts
