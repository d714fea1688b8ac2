(* Bench regression gate: diff a fresh BENCH.json (written by
   [main.exe --json]) against the committed BENCH_BASELINE.json and fail
   when a gated substrate kernel regressed.

   CI hosts vary wildly in absolute speed, so raw ms comparisons are
   useless across machines.  Instead every kernel present in both files
   contributes a fresh/baseline ratio, and the *median* ratio is taken
   as the machine-speed factor between the two runs; each gated kernel
   is then judged by its ratio normalized by that median.  A kernel is
   only flagged when it slowed down relative to the rest of the suite —
   a uniformly slower CI box moves every ratio together and cancels out.

   Usage: compare.exe [--factor F] [FRESH [BASELINE]]
     FRESH     defaults to BENCH.json (gitignored, freshly produced)
     BASELINE  defaults to BENCH_BASELINE.json (committed, 500 ms quota)
     --factor  normalized-ratio threshold, default 2.0

   Exit 0 when every gated kernel is within the factor, 1 on regression
   or on a gated kernel missing from the fresh run (a silently dropped
   benchmark must not read as a pass), 2 on malformed input. *)

(* The kernels the gate protects.  Beyond the substrate layer (where the
   perf work lives), the list includes every experiment/ablation kernel
   that proved stable at the 50 ms CI quota: >= 0.05 ms/run (above timer
   noise) and <= 1.3x max/min spread over repeated runs.  Re-measured
   after the landmark-oracle PR (4 runs at 50 ms): e4 now spreads 1.08x,
   e5 1.19x, e8 1.09x — all three rejoin the gate (their earlier 1.6x /
   2.8x / 1.8x noise predated the grid/cluster scheduler rework).  Still
   excluded: e3 (tiny), e11 (1.8x spread even after the incremental
   rewrite — permutation search time depends on cutoff luck), and the
   sub-0.05 ms coloring/tsp micro-kernels. *)
let gated =
  [
    "dtm/substrate/apsp_grid16";
    "dtm/substrate/baseline_sequential";
    "dtm/substrate/dependency_build";
    "dtm/substrate/lower_bound";
    "dtm/substrate/metric_landmark";
    "dtm/substrate/metric_landmark_weighted";
    "dtm/substrate/online_engine";
    "dtm/substrate/replay_grid";
    "dtm/substrate/replay_grid_cold";
    "dtm/substrate/validator";
    "dtm/experiments/e1_clique_thm1";
    "dtm/experiments/e2_hypercube_sec31";
    "dtm/experiments/e4_grid_thm3";
    "dtm/experiments/e5_cluster_thm4";
    "dtm/experiments/e6_star_thm5";
    "dtm/experiments/e8_coloring_sec23";
    "dtm/experiments/e7_blockgrid_sec8";
    "dtm/extensions/e9_congestion_cap1";
    "dtm/extensions/e9_congestion_unbounded";
    "dtm/extensions/e10_nearest_first";
    "dtm/extensions/e12_ring_sched";
    "dtm/extensions/e14_online_greedy_cm";
    "dtm/online/steady_state_1m";
    "dtm/online/steady_state_1m_s1";
    "dtm/online/steady_state_1m_s4";
    "dtm/online/stability_probe";
    "dtm/ablations/cluster_approach1";
    "dtm/ablations/cluster_approach2";
    "dtm/ablations/grid_xi_half";
    "dtm/ablations/grid_xi_double";
    "dtm/verify/trace_lint";
    "dtm/verify/model_check_small";
    "dtm/stm/commit_throughput_1d";
    "dtm/stm/commit_throughput_4d";
  ]

(* Per-kernel threshold overrides, multiplied on top of --factor's
   normalized-ratio gate.  The STM kernels spawn real domains inside
   the timed region, which makes them quota-sensitive in two ways: on
   a shared CI box domain wake-up latency swings the 4-domain kernel
   ~1.5x between otherwise identical runs (measured: 5.6-8.2 ms
   spread at the 50 ms quota), and the per-run domain spawn/teardown
   cost amortizes differently at the 50 ms CI quota than at the
   500 ms baseline quota.  (The 1-domain kernel spawns no domain; its
   old quota skew came from the busy-work calibration running inside
   its first timed run, which main.ml now does before timing.)  Gate
   both, but at a looser threshold so scheduler jitter and quota skew
   do not read as perf regressions; a genuine slowdown still trips the
   widened bound. *)
let factor_override =
  [
    ("dtm/stm/commit_throughput_1d", 1.5);
    ("dtm/stm/commit_throughput_4d", 1.5);
    (* The sharded 4-cell kernel shares the STM kernels' domain wake-up
       jitter: its pool-map barrier per round is scheduler-sensitive on
       shared CI boxes. *)
    ("dtm/online/steady_state_1m_s4", 1.5);
  ]

(* Kernels whose reading only means "scaling" when the host gives each
   domain a core: name -> domains it wants.  When the fresh run's
   recorded core count is below that, the kernel is reported and
   annotated but never fails the gate — a single-core container running
   4 domains measures contention, not a regression. *)
let multicore = [ ("dtm/stm/commit_throughput_4d", 4); ("dtm/online/steady_state_1m_s4", 4) ]

(* ------------------------------------------------------------------ *)
(* Minimal JSON-subset parser: objects, strings (escapes pass through
   verbatim), numbers, bools, null.  Exactly what main.exe emits —
   arrays are not produced, so they are not accepted.                 *)
(* ------------------------------------------------------------------ *)

type json =
  | Obj of (string * json) list
  | Str of string
  | Num of float
  | Lit of string

exception Malformed of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Malformed (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 32 in
    let rec go () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
        | None -> fail "unterminated escape")
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
      | None -> fail "unterminated string"
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
        advance ();
        go ()
      | _ -> ()
    in
    go ();
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> parse_object ()
    | Some '"' -> Str (parse_string ())
    | Some ('0' .. '9' | '-') -> Num (parse_number ())
    | Some ('t' | 'f' | 'n') ->
      let start = !pos in
      let rec word () =
        match peek () with
        | Some ('a' .. 'z') ->
          advance ();
          word ()
        | _ -> ()
      in
      word ();
      Lit (String.sub s start (!pos - start))
    | _ -> fail "expected value"
  and parse_object () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec member () =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        fields := (key, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          member ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      member ();
      Obj (List.rev !fields)
    end
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let read_doc path =
  let ic =
    try open_in_bin path
    with Sys_error msg ->
      Printf.eprintf "compare: cannot open %s: %s\n" path msg;
      exit 2
  in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  match parse body with
  | exception Malformed msg ->
    Printf.eprintf "compare: %s: malformed JSON (%s)\n" path msg;
    exit 2
  | Obj fields -> fields
  | _ ->
    Printf.eprintf "compare: %s: top level is not an object\n" path;
    exit 2

let results_of path fields =
  match List.assoc_opt "results" fields with
  | Some (Obj results) ->
    List.filter_map
      (fun (k, v) -> match v with Num f -> Some (k, f) | _ -> None)
      results
  | _ ->
    Printf.eprintf "compare: %s: no \"results\" object\n" path;
    exit 2

(* Detected core count of the machine that produced the file; absent in
   files written before the field existed. *)
let cores_of fields =
  match List.assoc_opt "config" fields with
  | Some (Obj config) -> (
    match List.assoc_opt "cores" config with
    | Some (Num c) -> Some (int_of_float c)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The gate                                                            *)
(* ------------------------------------------------------------------ *)

let median = function
  | [] -> 1.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let m = Array.length a in
    if m land 1 = 1 then a.(m / 2) else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.0

let usage = "usage: compare.exe [--factor F] [FRESH [BASELINE]]"

let () =
  let factor = ref 2.0 in
  let positional = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--factor" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f when f > 1.0 ->
        factor := f;
        parse_args rest
      | _ ->
        Printf.eprintf "invalid --factor %s\n%s\n" v usage;
        exit 2)
    | arg :: rest ->
      positional := arg :: !positional;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let fresh_path, baseline_path =
    match List.rev !positional with
    | [] -> ("BENCH.json", "BENCH_BASELINE.json")
    | [ f ] -> (f, "BENCH_BASELINE.json")
    | [ f; b ] -> (f, b)
    | _ ->
      Printf.eprintf "%s\n" usage;
      exit 2
  in
  let fresh_doc = read_doc fresh_path in
  let fresh = results_of fresh_path fresh_doc in
  let fresh_cores = cores_of fresh_doc in
  let baseline = results_of baseline_path (read_doc baseline_path) in
  let ratios =
    List.filter_map
      (fun (name, base_ms) ->
        match List.assoc_opt name fresh with
        | Some fresh_ms when base_ms > 0.0 -> Some (name, fresh_ms /. base_ms)
        | _ -> None)
      baseline
  in
  let speed = median (List.map snd ratios) in
  Printf.printf "machine-speed factor (median fresh/baseline over %d kernels): %.3f\n"
    (List.length ratios) speed;
  Printf.printf "%-40s %10s %10s %8s\n" "gated kernel" "base ms" "fresh ms" "norm";
  let failed = ref false in
  List.iter
    (fun name ->
      match (List.assoc_opt name baseline, List.assoc_opt name fresh) with
      | None, _ ->
        Printf.printf "%-40s missing from baseline (skipped)\n" name
      | Some _, None ->
        Printf.printf "%-40s MISSING from fresh run\n" name;
        failed := true
      | Some base_ms, Some fresh_ms ->
        let widen =
          match List.assoc_opt name factor_override with
          | Some w -> w
          | None -> 1.0
        in
        let undercored =
          match (List.assoc_opt name multicore, fresh_cores) with
          | Some domains, Some cores -> cores < domains
          | _ -> false
        in
        let norm = fresh_ms /. base_ms /. speed in
        let flag = (not undercored) && norm > !factor *. widen in
        if flag then failed := true;
        Printf.printf "%-40s %10.4f %10.4f %7.2fx%s%s%s\n" name base_ms fresh_ms
          norm
          (if widen > 1.0 then Printf.sprintf " (gate %.1fx)" (!factor *. widen)
           else "")
          (if undercored then
             Printf.sprintf "  (cores %d < domains: informational, not gated)"
               (Option.get fresh_cores)
           else "")
          (if flag then "  REGRESSION" else ""))
    gated;
  if !failed then begin
    Printf.printf "FAIL: a gated kernel regressed more than %.1fx (normalized)\n"
      !factor;
    exit 1
  end
  else Printf.printf "OK: all gated kernels within %.1fx (normalized)\n" !factor
