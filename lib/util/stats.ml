let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n <= 1 then 0.0
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (xs.(0), xs.(0))
    xs

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = percentile xs 50.0

let geometric_mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.geometric_mean: empty";
  let acc =
    Array.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive entry";
        acc +. log x)
      0.0 xs
  in
  exp (acc /. float_of_int n)

let linear_regression pts =
  let n = Array.length pts in
  if n < 2 then invalid_arg "Stats.linear_regression: need >= 2 points";
  let sx = ref 0.0 and sy = ref 0.0 and sxx = ref 0.0 and sxy = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      sxy := !sxy +. (x *. y))
    pts;
  let fn = float_of_int n in
  let denom = (fn *. !sxx) -. (!sx *. !sx) in
  if abs_float denom < 1e-12 then
    invalid_arg "Stats.linear_regression: degenerate abscissae";
  let slope = ((fn *. !sxy) -. (!sx *. !sy)) /. denom in
  let intercept = (!sy -. (slope *. !sx)) /. fn in
  (slope, intercept)

let log2_slope pts =
  let log2 x = log x /. log 2.0 in
  let lpts =
    Array.map
      (fun (x, y) ->
        if x <= 0.0 || y <= 0.0 then invalid_arg "Stats.log2_slope: non-positive";
        (log2 x, log2 y))
      pts
  in
  fst (linear_regression lpts)

(* Average ranks (1-based, ties share the mean of their rank range), the
   standard fractional-rank convention so Spearman on tied data matches
   textbook values. *)
let ranks xs =
  let n = Array.length xs in
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare xs.(a) xs.(b)) idx;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(idx.(!j + 1)) = xs.(idx.(!i)) do
      incr j
    done;
    (* positions !i..!j hold equal values; average rank is the midpoint *)
    let avg = float_of_int (!i + !j + 2) /. 2.0 in
    for k = !i to !j do
      r.(idx.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let spearman xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.spearman: length mismatch";
  if n < 2 then invalid_arg "Stats.spearman: need >= 2 points";
  let rx = ranks xs and ry = ranks ys in
  let mx = mean rx and my = mean ry in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = rx.(i) -. mx and dy = ry.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0.0 || !syy = 0.0 then 0.0
  else !sxy /. sqrt (!sxx *. !syy)

module Window = struct
  (* Bounded ring buffer of integer samples with exact nearest-rank
     percentiles over the window contents.  The buffer is allocated once
     at [create] and [add] never allocates, so a long steady-state run
     can sample latencies without GC pressure.  A report copies the live
     samples once and selects every requested rank in that copy. *)
  type t = {
    buf : int array;
    mutable next : int; (* write cursor *)
    mutable filled : int; (* live samples, <= capacity *)
    mutable total : int; (* samples ever added *)
  }

  let create capacity =
    if capacity <= 0 then invalid_arg "Stats.Window.create: capacity <= 0";
    { buf = Array.make capacity 0; next = 0; filled = 0; total = 0 }

  let capacity w = Array.length w.buf
  let length w = w.filled
  let total w = w.total

  let clear w =
    w.next <- 0;
    w.filled <- 0;
    w.total <- 0

  let add w x =
    let cap = Array.length w.buf in
    w.buf.(w.next) <- x;
    w.next <- (w.next + 1) mod cap;
    if w.filled < cap then w.filled <- w.filled + 1;
    w.total <- w.total + 1

  (* In-place 3-way quickselect: rearranges [a] so that position [k]
     holds its order statistic, and returns it.  The 3-way split takes a
     whole run of pivot-equal samples out of play in one pass, which is
     what latencies (small integers, heavily repeated) need. *)
  let select (a : int array) k =
    let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref false in
    while not !found do
      if !lo >= !hi then found := true
      else begin
        let mid = !lo + ((!hi - !lo) / 2) in
        let x = a.(!lo) and y = a.(mid) and z = a.(!hi) in
        (* median of three *)
        let p =
          if x < y then (if y < z then y else if x < z then z else x)
          else if x < z then x
          else if y < z then z
          else y
        in
        (* a.(lo..lt-1) < p, a.(lt..i-1) = p, a.(gt+1..hi) > p *)
        let lt = ref !lo and i = ref !lo and gt = ref !hi in
        while !i <= !gt do
          let v = a.(!i) in
          if v < p then begin
            a.(!i) <- a.(!lt);
            a.(!lt) <- v;
            incr lt;
            incr i
          end
          else if v > p then begin
            a.(!i) <- a.(!gt);
            a.(!gt) <- v;
            decr gt
          end
          else incr i
        done;
        if k < !lt then hi := !lt - 1
        else if k > !gt then lo := !gt + 1
        else found := true
      end
    done;
    a.(k)

  (* Exact nearest-rank percentile: the smallest sample such that at
     least ceil(p/100 * n) samples are <= it.  No interpolation — tail
     latencies should report a value that actually occurred. *)
  let percentiles w ps =
    if w.filled = 0 then invalid_arg "Stats.Window.percentile: empty";
    Array.iter
      (fun p ->
        if p < 0.0 || p > 100.0 then
          invalid_arg "Stats.Window.percentile: p out of range")
      ps;
    let n = w.filled in
    (* The ring occupies slots 0..filled-1 whenever filled < capacity and
       the whole buffer once full, so the live multiset is always a
       prefix. *)
    let live = Array.sub w.buf 0 n in
    Array.map
      (fun p ->
        let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
        let rank = if rank < 1 then 1 else if rank > n then n else rank in
        select live (rank - 1))
      ps

  let percentile w p = (percentiles w [| p |]).(0)

  let p50 w = percentile w 50.0
  let p99 w = percentile w 99.0
  let p999 w = percentile w 99.9

  let max_sample w =
    if w.filled = 0 then invalid_arg "Stats.Window.max_sample: empty";
    let m = ref w.buf.(0) in
    for i = 1 to w.filled - 1 do
      if w.buf.(i) > !m then m := w.buf.(i)
    done;
    !m

  let mean w =
    if w.filled = 0 then invalid_arg "Stats.Window.mean: empty";
    let s = ref 0 in
    for i = 0 to w.filled - 1 do
      s := !s + w.buf.(i)
    done;
    float_of_int !s /. float_of_int w.filled

  (* Replays each source's live samples oldest-first into a fresh ring,
     so under the usual eviction rule the merged window keeps the most
     recent samples of the concatenation; rolled-out counts carry over
     into [total].  Deterministic in the list order. *)
  let merge ~capacity ws =
    let w = create capacity in
    List.iter
      (fun src ->
        let cap = Array.length src.buf in
        let start = if src.filled < cap then 0 else src.next in
        for j = 0 to src.filled - 1 do
          add w src.buf.((start + j) mod cap)
        done;
        w.total <- w.total + (src.total - src.filled))
      ws;
    w
end

let histogram xs ~bins =
  if bins <= 0 then invalid_arg "Stats.histogram: bins <= 0";
  let lo, hi = min_max xs in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let b = int_of_float ((x -. lo) /. width) in
      let b = if b >= bins then bins - 1 else b in
      counts.(b) <- counts.(b) + 1)
    xs;
  Array.mapi (fun i c -> (lo +. (float_of_int i *. width), c)) counts
