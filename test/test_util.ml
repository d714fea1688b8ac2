(* Unit and property tests for the dtm_util substrate. *)

open Dtm_util

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let da = Array.init 32 (fun _ -> Prng.int a 1_000_000) in
  let db = Array.init 32 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (da <> db)

let test_prng_copy_replays () =
  let a = Prng.create ~seed:7 in
  let _ = Prng.int a 10 in
  let b = Prng.copy a in
  let xs = Array.init 50 (fun _ -> Prng.int a 99) in
  let ys = Array.init 50 (fun _ -> Prng.int b 99) in
  Alcotest.(check bool) "copy replays" true (xs = ys)

let test_prng_split_independent () =
  let a = Prng.create ~seed:7 in
  let b = Prng.split a in
  let xs = Array.init 32 (fun _ -> Prng.int a 1_000_000) in
  let ys = Array.init 32 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_prng_int_in_range () =
  let t = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Prng.int_in_range t ~lo:(-3) ~hi:4 in
    Alcotest.(check bool) "in range" true (x >= -3 && x <= 4)
  done

let test_prng_int_in_range_singleton () =
  let t = Prng.create ~seed:5 in
  Alcotest.(check int) "singleton range" 9 (Prng.int_in_range t ~lo:9 ~hi:9)

let test_sample_subset_basic () =
  let t = Prng.create ~seed:11 in
  for _ = 1 to 200 do
    let k = Prng.int t 10 and n = 10 + Prng.int t 20 in
    let s = Prng.sample_subset t ~k ~n in
    Alcotest.(check int) "size" k (Array.length s);
    Array.iter (fun x -> Alcotest.(check bool) "range" true (x >= 0 && x < n)) s;
    for i = 1 to Array.length s - 1 do
      Alcotest.(check bool) "strictly sorted" true (s.(i - 1) < s.(i))
    done
  done

let test_sample_subset_full () =
  let t = Prng.create ~seed:3 in
  let s = Prng.sample_subset t ~k:8 ~n:8 in
  Alcotest.(check (array int)) "k = n gives all" (Array.init 8 Fun.id) s

let test_sample_subset_empty () =
  let t = Prng.create ~seed:3 in
  Alcotest.(check int) "k = 0 empty" 0 (Array.length (Prng.sample_subset t ~k:0 ~n:5))

let test_sample_subset_uniformish () =
  (* Each element of [0, n) should appear with frequency ~ k/n. *)
  let t = Prng.create ~seed:13 in
  let n = 10 and k = 3 and trials = 3000 in
  let counts = Array.make n 0 in
  for _ = 1 to trials do
    Array.iter (fun x -> counts.(x) <- counts.(x) + 1) (Prng.sample_subset t ~k ~n)
  done;
  let expected = float_of_int (trials * k) /. float_of_int n in
  Array.iter
    (fun c ->
      let dev = abs_float (float_of_int c -. expected) /. expected in
      Alcotest.(check bool) "within 15% of uniform" true (dev < 0.15))
    counts

let test_permutation () =
  let t = Prng.create ~seed:17 in
  let p = Prng.permutation t 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_shuffle_preserves_multiset () =
  let t = Prng.create ~seed:19 in
  let a = [| 3; 1; 4; 1; 5; 9; 2; 6 |] in
  let b = Array.copy a in
  Prng.shuffle t b;
  let sa = Array.copy a and sb = Array.copy b in
  Array.sort compare sa;
  Array.sort compare sb;
  Alcotest.(check (array int)) "multiset preserved" sa sb

(* ------------------------------------------------------------------ *)
(* Pqueue                                                             *)
(* ------------------------------------------------------------------ *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q ~prio:p p) [ 5; 3; 8; 1; 9; 2; 7 ];
  let out = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | None -> ()
    | Some (p, _) ->
      out := p :: !out;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 5; 7; 8; 9 ] (List.rev !out)

let test_pqueue_empty () =
  let q : int Pqueue.t = Pqueue.create () in
  Alcotest.(check bool) "is_empty" true (Pqueue.is_empty q);
  Alcotest.(check bool) "pop none" true (Pqueue.pop q = None);
  Alcotest.(check bool) "peek none" true (Pqueue.peek q = None)

let test_pqueue_peek () =
  let q = Pqueue.create () in
  Pqueue.push q ~prio:4 "d";
  Pqueue.push q ~prio:2 "b";
  Alcotest.(check bool) "peek min" true (Pqueue.peek q = Some (2, "b"));
  Alcotest.(check int) "length" 2 (Pqueue.length q)

let test_pqueue_clear () =
  let q = Pqueue.create () in
  Pqueue.push q ~prio:1 ();
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q)

let test_pqueue_pop_exn () =
  let q : unit Pqueue.t = Pqueue.create () in
  Alcotest.check_raises "pop_exn empty" (Invalid_argument "Pqueue.pop_exn: empty queue")
    (fun () -> ignore (Pqueue.pop_exn q))

let prop_pqueue_sorts =
  qtest "pqueue drains any list sorted"
    QCheck.(list small_int)
    (fun xs ->
      let q = Pqueue.create () in
      List.iter (fun x -> Pqueue.push q ~prio:x x) xs;
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Union_find                                                         *)
(* ------------------------------------------------------------------ *)

let test_uf_basic () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial count" 6 (Union_find.count uf);
  Alcotest.(check bool) "union new" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union dup" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  Alcotest.(check int) "count after" 5 (Union_find.count uf)

let test_uf_transitive () =
  let uf = Union_find.create 10 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  ignore (Union_find.union uf 2 3);
  Alcotest.(check bool) "transitive" true (Union_find.same uf 0 3);
  Alcotest.(check int) "count" 7 (Union_find.count uf)

let prop_uf_count =
  qtest "union-find count equals number of components"
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      let merges =
        List.fold_left
          (fun acc (a, b) -> if Union_find.union uf a b then acc + 1 else acc)
          0 pairs
      in
      Union_find.count uf = 20 - merges)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let feq ?(eps = 1e-9) a b = abs_float (a -. b) < eps

let test_stats_mean () =
  Alcotest.(check bool) "mean" true (feq (Stats.mean [| 1.0; 2.0; 3.0 |]) 2.0)

let test_stats_stddev () =
  Alcotest.(check bool) "stddev of constants" true (feq (Stats.stddev [| 4.0; 4.0; 4.0 |]) 0.0);
  Alcotest.(check bool) "stddev" true (feq (Stats.stddev [| 2.0; 4.0 |]) (sqrt 2.0))

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check bool) "p0" true (feq (Stats.percentile xs 0.0) 1.0);
  Alcotest.(check bool) "p100" true (feq (Stats.percentile xs 100.0) 4.0);
  Alcotest.(check bool) "median" true (feq (Stats.median xs) 2.5)

let test_stats_geomean () =
  Alcotest.(check bool) "geomean" true (feq (Stats.geometric_mean [| 1.0; 4.0 |]) 2.0)

let test_stats_linreg () =
  let slope, intercept =
    Stats.linear_regression [| (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) |]
  in
  Alcotest.(check bool) "slope" true (feq slope 2.0);
  Alcotest.(check bool) "intercept" true (feq intercept 1.0)

let test_stats_log2_slope () =
  (* y = x^2 has log-log slope 2. *)
  let pts = Array.init 8 (fun i ->
      let x = float_of_int (i + 1) in
      (x, x *. x))
  in
  Alcotest.(check bool) "exponent 2" true (feq ~eps:1e-6 (Stats.log2_slope pts) 2.0)

let test_stats_histogram () =
  let h = Stats.histogram [| 0.0; 0.1; 0.9; 1.0 |] ~bins:2 in
  Alcotest.(check int) "bins" 2 (Array.length h);
  Alcotest.(check int) "bin0" 2 (snd h.(0));
  Alcotest.(check int) "bin1" 2 (snd h.(1))

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 2.0 |] in
  Alcotest.(check bool) "min" true (feq lo (-1.0));
  Alcotest.(check bool) "max" true (feq hi 3.0)

(* ------------------------------------------------------------------ *)
(* Stats.Window                                                       *)
(* ------------------------------------------------------------------ *)

let test_window_known_distribution () =
  (* 1..100 shuffled: nearest-rank percentiles are exact order
     statistics, so p50 = 50, p99 = 99, p99.9 = 100. *)
  let w = Stats.Window.create 128 in
  let xs = Array.init 100 (fun i -> i + 1) in
  let rng = Dtm_util.Prng.create ~seed:11 in
  Dtm_util.Prng.shuffle rng xs;
  Array.iter (Stats.Window.add w) xs;
  Alcotest.(check int) "p50" 50 (Stats.Window.p50 w);
  Alcotest.(check int) "p99" 99 (Stats.Window.p99 w);
  Alcotest.(check int) "p999" 100 (Stats.Window.p999 w);
  Alcotest.(check int) "p0 -> min" 1 (Stats.Window.percentile w 0.0);
  Alcotest.(check int) "p100 -> max" 100 (Stats.Window.percentile w 100.0);
  Alcotest.(check int) "max_sample" 100 (Stats.Window.max_sample w);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Stats.Window.mean w)

let test_window_nearest_rank () =
  (* [1; 2; 3; 4]: rank ceil(p/100 * 4), a sample that occurred. *)
  let w = Stats.Window.create 8 in
  List.iter (Stats.Window.add w) [ 4; 2; 1; 3 ];
  Alcotest.(check int) "p25" 1 (Stats.Window.percentile w 25.0);
  Alcotest.(check int) "p50" 2 (Stats.Window.percentile w 50.0);
  Alcotest.(check int) "p51" 3 (Stats.Window.percentile w 51.0);
  Alcotest.(check int) "p75" 3 (Stats.Window.percentile w 75.0);
  Alcotest.(check int) "p76" 4 (Stats.Window.percentile w 76.0)

let test_window_rollover () =
  (* Capacity 10, samples 1..25: the window holds 16..25. *)
  let w = Stats.Window.create 10 in
  for i = 1 to 25 do
    Stats.Window.add w i
  done;
  Alcotest.(check int) "length" 10 (Stats.Window.length w);
  Alcotest.(check int) "total" 25 (Stats.Window.total w);
  Alcotest.(check int) "capacity" 10 (Stats.Window.capacity w);
  Alcotest.(check int) "p50 of 16..25" 20 (Stats.Window.p50 w);
  Alcotest.(check int) "p99 of 16..25" 25 (Stats.Window.p99 w);
  Alcotest.(check int) "min survivor" 16 (Stats.Window.percentile w 0.0);
  Alcotest.(check int) "max_sample" 25 (Stats.Window.max_sample w)

let test_window_edge_cases () =
  let w = Stats.Window.create 4 in
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.Window.percentile: empty") (fun () ->
      ignore (Stats.Window.p50 w));
  Stats.Window.add w 7;
  Alcotest.(check int) "single p50" 7 (Stats.Window.p50 w);
  Alcotest.(check int) "single p999" 7 (Stats.Window.p999 w);
  Stats.Window.clear w;
  Alcotest.(check int) "cleared length" 0 (Stats.Window.length w);
  Alcotest.(check int) "cleared total" 0 (Stats.Window.total w);
  List.iter (Stats.Window.add w) [ 5; 5; 5; 5 ];
  Alcotest.(check int) "all-equal p50" 5 (Stats.Window.p50 w);
  Alcotest.(check int) "all-equal p999" 5 (Stats.Window.p999 w);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.Window.percentile: p out of range") (fun () ->
      ignore (Stats.Window.percentile w 101.0));
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Stats.Window.create: capacity <= 0") (fun () ->
      ignore (Stats.Window.create 0))

let test_window_merge () =
  (* Two windows with disjoint samples: the merge holds all of them and
     the percentiles are over the union. *)
  let a = Stats.Window.create 8 and b = Stats.Window.create 8 in
  List.iter (Stats.Window.add a) [ 1; 3; 5 ];
  List.iter (Stats.Window.add b) [ 2; 4 ];
  let m = Stats.Window.merge ~capacity:16 [ a; b ] in
  Alcotest.(check int) "length" 5 (Stats.Window.length m);
  Alcotest.(check int) "total" 5 (Stats.Window.total m);
  Alcotest.(check int) "p50" 3 (Stats.Window.p50 m);
  Alcotest.(check int) "max" 5 (Stats.Window.max_sample m);
  (* A rolled-over source: live samples replay oldest-first and the
     rolled-out count carries into [total]. *)
  let c = Stats.Window.create 4 in
  for i = 1 to 10 do
    Stats.Window.add c i
  done;
  (* c holds 7..10 with total 10 *)
  let m2 = Stats.Window.merge ~capacity:3 [ c ] in
  Alcotest.(check int) "rolled length" 3 (Stats.Window.length m2);
  Alcotest.(check int) "rolled total" 10 (Stats.Window.total m2);
  (* capacity 3 keeps the most recent of c's live samples: 8, 9, 10 *)
  Alcotest.(check int) "rolled min" 8 (Stats.Window.percentile m2 0.0);
  Alcotest.(check int) "rolled max" 10 (Stats.Window.max_sample m2);
  let e = Stats.Window.merge ~capacity:2 [] in
  Alcotest.(check int) "empty merge" 0 (Stats.Window.length e)

(* Sort-based nearest-rank reference: the smallest sample with at least
   ceil(p/100 * n) samples <= it, read off a fully sorted copy. *)
let nearest_rank_reference samples p =
  let sorted = Array.of_list samples in
  Array.sort Int.compare sorted;
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 1 (min n rank) - 1)

(* The samples a window of capacity [cap] holds after being fed [xs]:
   the last min(cap, length xs), oldest first. *)
let live_samples cap xs =
  let drop = max 0 (List.length xs - cap) in
  List.filteri (fun i _ -> i >= drop) xs

(* Latency-like samples: mostly a handful of repeated small values, plus
   negatives, the extremes of the int range and arbitrary ints. *)
let sample_gen =
  QCheck.Gen.(
    frequency
      [
        (5, int_range 0 3);
        (2, int_range (-40) 40);
        (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0 ]);
        (1, int);
      ])

let rank_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return 0.0);
        (1, return 100.0);
        (1, oneofl [ 50.0; 99.0; 99.9 ]);
        (3, float_range 0.0 100.0);
      ])

(* Windows fed some samples, each with its capacity (small capacities
   roll the ring over), plus the merge capacity and the ranks asked. *)
let windows_arb =
  let open QCheck.Gen in
  let window = pair (int_range 1 40) (list_size (int_range 0 90) sample_gen) in
  QCheck.make
    ~print:
      QCheck.Print.(
        triple
          (list (pair int (list int)))
          int
          (array float))
    (triple (list_size (int_range 1 4) window) (int_range 1 60)
       (array_size (int_range 0 6) rank_gen))

let prop_window_percentiles_match_reference =
  qtest ~count:500 "Window.percentile(s) = sorted nearest-rank reference"
    windows_arb (fun (specs, merge_cap, ps) ->
      let agrees w live =
        if live = [] then
          match Stats.Window.percentiles w ps with
          | _ -> false
          | exception Invalid_argument _ -> true
        else begin
          let expected = Array.map (nearest_rank_reference live) ps in
          Stats.Window.percentiles w ps = expected
          && Array.for_all2 (fun p e -> Stats.Window.percentile w p = e) ps expected
          && Stats.Window.percentile w 0.0 = nearest_rank_reference live 0.0
          && Stats.Window.percentile w 100.0 = nearest_rank_reference live 100.0
        end
      in
      let windows =
        List.map
          (fun (cap, xs) ->
            let w = Stats.Window.create cap in
            List.iter (Stats.Window.add w) xs;
            (w, live_samples cap xs))
          specs
      in
      let merged = Stats.Window.merge ~capacity:merge_cap (List.map fst windows) in
      let merged_live = live_samples merge_cap (List.concat_map snd windows) in
      List.for_all (fun (w, live) -> agrees w live) windows
      && agrees merged merged_live)

(* Merging k windows = feeding one window the concatenation of their
   live sample sequences (oldest-first), for any capacities. *)
let prop_window_merge_is_concat =
  qtest ~count:200 "Window.merge = concat replay"
    QCheck.(
      pair (int_range 1 12)
        (small_list (pair (int_range 1 8) (small_list small_int))))
    (fun (cap, specs) ->
      let windows =
        List.map
          (fun (c, xs) ->
            let w = Stats.Window.create c in
            List.iter (Stats.Window.add w) xs;
            (w, xs))
          specs
      in
      let merged = Stats.Window.merge ~capacity:cap (List.map fst windows) in
      (* Rebuild the expected live sequences directly from the inputs:
         a window of capacity c fed xs holds the last min(c, len xs)
         samples, oldest first. *)
      let replay = Stats.Window.create cap in
      let replayed_total = ref 0 in
      List.iter
        (fun (c, xs) ->
          let n = List.length xs in
          let live = max 0 (n - c) in
          List.iteri
            (fun i x -> if i >= live then Stats.Window.add replay x)
            xs;
          replayed_total := !replayed_total + live)
        specs;
      let same_samples =
        Stats.Window.length merged = Stats.Window.length replay
        && (Stats.Window.length merged = 0
           || List.for_all
                (fun p ->
                  Stats.Window.percentile merged p
                  = Stats.Window.percentile replay p)
                [ 0.0; 25.0; 50.0; 75.0; 99.0; 100.0 ])
      in
      same_samples
      && Stats.Window.total merged
         = Stats.Window.total replay + !replayed_total)

(* ------------------------------------------------------------------ *)
(* Table                                                              *)
(* ------------------------------------------------------------------ *)

let test_table_renders () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  (* Right-aligned numeric column: "22" ends its line. *)
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count" 5 (List.length lines)

let test_table_mismatch () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "cell count" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_csv () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("v", Table.Right) ] in
  Table.add_row t [ "plain"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "needs, quoting"; "say \"hi\"" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv"
    "name,v\nplain,1\n\"needs, quoting\",\"say \"\"hi\"\"\"\n" csv

let test_table_cells () =
  Alcotest.(check string) "int cell" "42" (Table.cell_int 42);
  Alcotest.(check string) "float cell" "3.14" (Table.cell_float ~decimals:2 3.14159)

let () =
  Alcotest.run "dtm_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy replays" `Quick test_prng_copy_replays;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "int_in_range" `Quick test_prng_int_in_range;
          Alcotest.test_case "int_in_range singleton" `Quick test_prng_int_in_range_singleton;
          Alcotest.test_case "sample_subset basic" `Quick test_sample_subset_basic;
          Alcotest.test_case "sample_subset full" `Quick test_sample_subset_full;
          Alcotest.test_case "sample_subset empty" `Quick test_sample_subset_empty;
          Alcotest.test_case "sample_subset uniform-ish" `Slow test_sample_subset_uniformish;
          Alcotest.test_case "permutation" `Quick test_permutation;
          Alcotest.test_case "shuffle multiset" `Quick test_shuffle_preserves_multiset;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "pop order" `Quick test_pqueue_order;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          Alcotest.test_case "peek" `Quick test_pqueue_peek;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          Alcotest.test_case "pop_exn" `Quick test_pqueue_pop_exn;
          prop_pqueue_sorts;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basic" `Quick test_uf_basic;
          Alcotest.test_case "transitive" `Quick test_uf_transitive;
          prop_uf_count;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "geometric mean" `Quick test_stats_geomean;
          Alcotest.test_case "linear regression" `Quick test_stats_linreg;
          Alcotest.test_case "log2 slope" `Quick test_stats_log2_slope;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "min_max" `Quick test_stats_min_max;
          Alcotest.test_case "window known distribution" `Quick
            test_window_known_distribution;
          Alcotest.test_case "window nearest rank" `Quick
            test_window_nearest_rank;
          Alcotest.test_case "window rollover" `Quick test_window_rollover;
          Alcotest.test_case "window edge cases" `Quick test_window_edge_cases;
          Alcotest.test_case "window merge" `Quick test_window_merge;
          prop_window_merge_is_concat;
          prop_window_percentiles_match_reference;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "cell mismatch" `Quick test_table_mismatch;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "cell formatting" `Quick test_table_cells;
        ] );
    ]
