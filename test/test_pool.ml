(* Tests for the Dtm_util.Pool domain pool: ordered merge (parallel =
   sequential, byte for byte), deterministic exception propagation,
   nested joins (helping), and the shared default pool the -j flag
   configures. *)

module Pool = Dtm_util.Pool

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let test_map_matches_sequential () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let xs = List.init 100 (fun i -> i) in
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d" jobs)
            (List.map (fun x -> (x * x) + 1) xs)
            (Pool.map p (fun x -> (x * x) + 1) xs)))
    [ 1; 2; 4; 7 ]

let test_map_empty_and_singleton () =
  Pool.with_pool ~jobs:3 (fun p ->
      Alcotest.(check (list int)) "empty" [] (Pool.map p succ []);
      Alcotest.(check (list int)) "singleton" [ 8 ] (Pool.map p succ [ 7 ]))

exception Boom of int

let test_earliest_exception_wins () =
  Pool.with_pool ~jobs:4 (fun p ->
      List.iter
        (fun _ ->
          match
            Pool.map p (fun i -> if i mod 3 = 2 then raise (Boom i) else i)
              (List.init 30 (fun i -> i))
          with
          | _ -> Alcotest.fail "expected Boom"
          | exception Boom i ->
            Alcotest.(check int) "lowest failing index" 2 i)
        (List.init 10 Fun.id))

(* Raises from a worker domain only: a task that lands on the joining
   domain (which helps) waits until a worker has raised, so exactly the
   worker's backtrace is the one re-raised. *)
exception Origin

let worker_raised = Atomic.make false

let[@inline never] raise_from_worker () =
  Atomic.set worker_raised true;
  raise Origin

let test_backtrace_keeps_origin () =
  Printexc.record_backtrace true;
  let main = Domain.self () in
  Atomic.set worker_raised false;
  Pool.with_pool ~jobs:2 (fun p ->
      let task _ =
        if Domain.self () <> main then raise_from_worker ()
        else begin
          let deadline = Unix.gettimeofday () +. 30.0 in
          while (not (Atomic.get worker_raised)) && Unix.gettimeofday () < deadline do
            Domain.cpu_relax ()
          done
        end
      in
      match Pool.map p task [ 0; 1 ] with
      | _ -> Alcotest.fail "expected Origin from a worker domain"
      | exception Origin ->
        let bt = Printexc.get_backtrace () in
        let names_origin =
          let needle = "raise_from_worker" in
          let n = String.length needle in
          let rec scan i =
            i + n <= String.length bt && (String.sub bt i n = needle || scan (i + 1))
          in
          scan 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "backtrace names the raising function:\n%s" bt)
          true names_origin)

let test_nested_maps () =
  (* An outer map whose tasks themselves map on the same pool: the
     helping join must keep this deadlock-free at any pool size. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let expected =
            List.init 8 (fun i -> List.init 20 (fun j -> (i * 100) + j))
          in
          let got =
            Pool.map p
              (fun i -> Pool.map p (fun j -> (i * 100) + j) (List.init 20 Fun.id))
              (List.init 8 Fun.id)
          in
          Alcotest.(check (list (list int)))
            (Printf.sprintf "nested jobs=%d" jobs)
            expected got))
    [ 1; 2; 4 ]

let test_shutdown_then_map_still_works () =
  let p = Pool.create ~jobs:3 in
  Alcotest.(check (list int)) "before" [ 2; 3 ] (Pool.map p succ [ 1; 2 ]);
  Pool.shutdown p;
  Pool.shutdown p;
  (* After shutdown the caller drains the queue itself. *)
  Alcotest.(check (list int)) "after" [ 2; 3; 4 ] (Pool.map p succ [ 1; 2; 3 ])

let test_bsp_rounds_and_barrier () =
  (* Bulk-synchronous rounds of [map], as the sharded engine runs them:
     a token-passing chain with double-buffered mailboxes, where round r
     reads the buffer written in round r-1 and writes the other one, so
     no location is read and written by different cells in the same
     round.  Any barrier slip (a cell starting round r+1 before all of
     round r finished) changes the tally. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let workers = 5 in
          let rounds = 12 in
          let mail = Array.init 2 (fun _ -> Array.make workers 0) in
          let seen = Array.make workers 0 in
          let cells = List.init workers Fun.id in
          for round = 0 to rounds - 1 do
            ignore
              (Pool.map p
                 (fun i ->
                   let cur = mail.(round land 1)
                   and nxt = mail.((round + 1) land 1) in
                   seen.(i) <- seen.(i) + cur.(i);
                   nxt.((i + 1) mod workers) <- seen.(i) + 1)
                 cells)
          done;
          (* The protocol is deterministic, so a plain sequential replay
             gives the expected trace. *)
          let emailbox = Array.make workers 0 in
          let eseen = Array.make workers 0 in
          for _ = 0 to rounds - 1 do
            let next = Array.make workers 0 in
            for i = 0 to workers - 1 do
              eseen.(i) <- eseen.(i) + emailbox.(i);
              next.((i + 1) mod workers) <- eseen.(i) + 1
            done;
            Array.blit next 0 emailbox 0 workers
          done;
          Alcotest.(check (array int))
            (Printf.sprintf "bsp jobs=%d" jobs)
            eseen seen))
    [ 1; 2; 4 ]

let test_default_pool_configurable () =
  Pool.set_default_jobs 2;
  Alcotest.(check int) "configured" 2 (Pool.default_jobs ());
  Alcotest.(check int) "pool size" 2 (Pool.jobs (Pool.default ()));
  Alcotest.(check (list int)) "run" [ 1; 4; 9 ] (Pool.run (fun x -> x * x) [ 1; 2; 3 ]);
  Pool.set_default_jobs 3;
  Alcotest.(check int) "replaced" 3 (Pool.jobs (Pool.default ()))

let test_jobs_validation () =
  Alcotest.check_raises "create 0" (Invalid_argument "Pool.create: jobs must be >= 1")
    (fun () -> ignore (Pool.create ~jobs:0));
  Alcotest.check_raises "set 0"
    (Invalid_argument "Pool.set_default_jobs: jobs must be >= 1") (fun () ->
      Pool.set_default_jobs 0)

(* Parallel map equals List.map on random inputs, pool sizes and
   functions; runs the same batch twice to catch scheduling-dependent
   state. *)
let prop_map_deterministic =
  qtest ~count:200 "Pool.map = List.map, twice, any jobs"
    QCheck.(pair (int_range 1 6) (small_list small_int))
    (fun (jobs, xs) ->
      Pool.with_pool ~jobs (fun p ->
          let f x = (x * 37) mod 101 in
          let expected = List.map f xs in
          Pool.map p f xs = expected && Pool.map p f xs = expected))

let () =
  Alcotest.run "dtm_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map = sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "empty + singleton" `Quick test_map_empty_and_singleton;
          Alcotest.test_case "earliest exception wins" `Quick
            test_earliest_exception_wins;
          Alcotest.test_case "worker backtrace keeps its origin" `Quick
            test_backtrace_keeps_origin;
          Alcotest.test_case "nested maps" `Quick test_nested_maps;
          Alcotest.test_case "bsp barrier" `Quick test_bsp_rounds_and_barrier;
          Alcotest.test_case "shutdown" `Quick test_shutdown_then_map_still_works;
          Alcotest.test_case "default pool" `Quick test_default_pool_configurable;
          Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
        ] );
      ("properties", [ prop_map_deterministic ]);
    ]
