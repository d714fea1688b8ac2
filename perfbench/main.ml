(* The end-to-end benchmark.  One workload per invocation:

     main.exe --workload serve --seed 1 --seconds 12 --trace 0

   prints an environment stamp, every metric with its unit, the outcome of
   each correctness check and, as its last line, the JSON result.  Exits 1
   when a check fails.  [--self-test] instead runs every workload at a tiny
   size and shows that each check fires on a corrupted output.  See
   README.md for the workloads, metrics and layer predictions. *)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 | --self-test"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rev = ref "unknown" and out_dir = ref "" and self_test = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve | serve-sharded | stm-mixed | offline-batch");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--rev", Arg.Set_string rev, "REV git revision for the environment stamp");
      ("--out", Arg.Set_string out_dir, "DIR where a traced run writes its spans");
      ("--self-test", Arg.Set self_test, " make every correctness check fire");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !self_test then exit (Selftest.run ());
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  if !seconds <= 0.0 then (prerr_endline "--seconds must be positive"; exit 2);
  Measure.traced := !trace = 1;
  let cfg = { Measure.seed = !seed; seconds = !seconds; rev = !rev } in
  let attempted, failed =
    match !workload with
    | "serve" -> Serve.run ~sharded:false ~txns:Serve.txns cfg
    | "serve-sharded" -> Serve.run ~sharded:true ~txns:Serve.txns cfg
    | "stm-mixed" -> Stm_mixed.run ~txns:Stm_mixed.txns cfg
    | "offline-batch" -> Offline.run cfg
    | w ->
      Printf.eprintf "unknown workload %S\n%s\n" w usage;
      exit 2
  in
  if !Measure.traced && !out_dir <> "" then begin
    if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
    let path = Filename.concat !out_dir (Printf.sprintf "%s-seed%d.spans.json" !workload !seed) in
    Span.write ~path ~env_json:!Measure.env_json;
    Measure.note "spans written to %s" path
  end;
  Measure.print_checks ();
  let correct = Measure.all_checks_passed () && failed = 0 in
  Measure.finish ~correct ~attempted ~failed;
  exit (if correct then 0 else 1)
