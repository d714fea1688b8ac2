(* Golden regression tests: exact makespans for fixed seeds.  These pin
   the behaviour of every scheduler so that refactorings that change
   results (even to feasible ones) are flagged for review.  If a change
   is intentional, update the constants and note it in the commit. *)

module Schedule = Dtm_core.Schedule
module Prng = Dtm_util.Prng

let uniform ~seed ~n ~w ~k =
  Dtm_workload.Uniform.instance ~rng:(Prng.create ~seed) ~n ~num_objects:w ~k ()

let check name expected actual =
  Alcotest.(check int) (name ^ " makespan") expected actual

let test_clique_golden () =
  let inst = uniform ~seed:1 ~n:32 ~w:8 ~k:2 in
  check "clique" 10
    (Schedule.makespan (Dtm_sched.Clique_sched.schedule ~n:32 inst))

let test_line_golden () =
  let inst = uniform ~seed:2 ~n:64 ~w:16 ~k:2 in
  check "line" 189 (Schedule.makespan (Dtm_sched.Line_sched.schedule ~n:64 inst))

let test_ring_golden () =
  let inst = uniform ~seed:3 ~n:64 ~w:16 ~k:2 in
  check "ring" 127 (Schedule.makespan (Dtm_sched.Ring_sched.schedule ~n:64 inst))

let test_grid_golden () =
  let inst = uniform ~seed:4 ~n:64 ~w:16 ~k:2 in
  check "grid" 58
    (Schedule.makespan (Dtm_sched.Grid_sched.schedule ~rows:8 ~cols:8 inst))

let test_cluster_golden () =
  let p = { Dtm_topology.Cluster.clusters = 4; size = 6; bridge_weight = 8 } in
  let inst = uniform ~seed:5 ~n:24 ~w:8 ~k:2 in
  check "cluster approach1" 47
    (Schedule.makespan
       (Dtm_sched.Cluster_sched.schedule ~approach:Dtm_sched.Cluster_sched.Approach1
          p inst));
  check "cluster approach2" 99
    (Schedule.makespan
       (Dtm_sched.Cluster_sched.schedule
          ~approach:(Dtm_sched.Cluster_sched.Approach2 { seed = 6 })
          p inst))

let test_star_golden () =
  let p = { Dtm_topology.Star.rays = 5; ray_len = 6 } in
  let inst = uniform ~seed:7 ~n:31 ~w:8 ~k:2 in
  check "star greedy" 77
    (Schedule.makespan
       (Dtm_sched.Star_sched.schedule ~variant:Dtm_sched.Star_sched.Greedy_periods p
          inst))

let test_engine_golden () =
  let inst = uniform ~seed:8 ~n:32 ~w:8 ~k:2 in
  check "engine" 18
    (Schedule.makespan (Dtm_sim.Engine.run (Dtm_topology.Clique.metric 32) inst))

let test_online_golden () =
  let rng = Prng.create ~seed:9 in
  let s =
    Dtm_online.Stream.uniform ~rng ~n:16 ~num_objects:6 ~k:2 ~txns_per_node:3
      ~mean_gap:2
  in
  let homes = Dtm_online.Stream.initial_homes ~rng s in
  let r =
    Dtm_online.Runner.run
      ~policy:(Dtm_online.Policy.Timestamp { preemption = true })
      (Dtm_topology.Clique.metric 16) s ~homes
  in
  check "online greedy-cm" 32 r.Dtm_online.Runner.makespan

(* ------------------------------------------------------------------ *)
(* Offline pipeline pins                                               *)
(* ------------------------------------------------------------------ *)

(* Captured from the build in which the metric-descent walk and
   [Rw_greedy]'s coloring were separate implementations: every schedule
   expansion and every read-replication schedule must stay byte for
   byte what it was.  Each line aggregates three seeds: the verdicts,
   weighted distance, hops (and, for the router rule, waits and
   makespans) plus an MD5 over every event and error message. *)

let pin_topologies =
  List.map
    (fun s -> Result.get_ok (Dtm_topology.Topology.of_string s))
    [
      "line:24"; "ring:20"; "grid:8x8"; "torus:6x6"; "hypercube:5";
      "cluster:4x5:g7"; "star:5x6"; "powerlaw:300x2:s3";
    ]

let pin_seeds = [ 1; 2; 3 ]

let walk g metric inst sched =
  let w = Dtm_sim.Replay.walk g metric inst sched in
  Dtm_sim.Replay.(w.ok, w.errors, w.messages, w.hops, w.trace)

(* Halving every step keeps each object's visit order but not the
   distance gaps, so most of these replays fail in transit. *)
let compressed ~n sched =
  Schedule.of_times ~n
    (List.map
       (fun v -> (v, (Schedule.time_exn sched v + 1) / 2))
       (Schedule.scheduled_nodes sched))

let add_trace buf trace errors =
  List.iter
    (fun e -> Buffer.add_string buf (Dtm_sim.Event.to_string e ^ "\n"))
    (Dtm_sim.Trace.events trace);
  List.iter (fun e -> Buffer.add_string buf (e ^ "\n")) errors

let offline_pins () =
  List.concat_map
    (fun topo ->
      let module T = Dtm_topology.Topology in
      let g = T.graph topo and metric = T.metric topo and n = T.n topo in
      let router = Dtm_sim.Router.create g in
      List.concat_map
        (fun variant ->
          let wk = Buffer.create 4096 and rp = Buffer.create 4096 in
          let w_ok = ref 0 and w_msg = ref 0 and w_hops = ref 0 in
          let r_ok = ref 0 and r_msg = ref 0 and r_hops = ref 0 in
          let r_wait = ref 0 and r_mk = ref 0 in
          List.iter
            (fun seed ->
              let inst = uniform ~seed ~n ~w:(max 2 (n / 3)) ~k:2 in
              let sched = Dtm_sched.Auto.schedule ~seed topo inst in
              let sched =
                if variant = "feasible" then sched else compressed ~n sched
              in
              let ok, errors, messages, hops, trace = walk g metric inst sched in
              if ok then incr w_ok;
              w_msg := !w_msg + messages;
              w_hops := !w_hops + hops;
              add_trace wk trace errors;
              let r = Dtm_sim.Replay.run ~router g inst sched in
              if r.Dtm_sim.Replay.ok then incr r_ok;
              r_msg := !r_msg + r.Dtm_sim.Replay.messages;
              r_hops := !r_hops + r.Dtm_sim.Replay.hops;
              r_wait := !r_wait + r.Dtm_sim.Replay.total_wait;
              r_mk := !r_mk + r.Dtm_sim.Replay.makespan;
              add_trace rp r.Dtm_sim.Replay.trace r.Dtm_sim.Replay.errors)
            pin_seeds;
          let md5 b = Digest.to_hex (Digest.string (Buffer.contents b)) in
          let name = T.to_string topo in
          [
            Printf.sprintf "walk %s %s ok=%d messages=%d hops=%d trace=%s" name
              variant !w_ok !w_msg !w_hops (md5 wk);
            Printf.sprintf
              "replay %s %s ok=%d messages=%d hops=%d wait=%d makespan=%d \
               trace=%s"
              name variant !r_ok !r_msg !r_hops !r_wait !r_mk (md5 rp);
          ])
        [ "feasible"; "compressed" ])
    pin_topologies

let rw_pins () =
  let module C = Dtm_core.Coloring in
  List.concat_map
    (fun frac ->
      List.concat_map
        (fun (sname, strategy) ->
          List.map
            (fun (oname, order) ->
              let buf = Buffer.create 4096 and total = ref 0 in
              List.iter
                (fun topo ->
                  let module T = Dtm_topology.Topology in
                  let metric = T.metric topo and n = T.n topo in
                  List.iter
                    (fun seed ->
                      let rw =
                        Dtm_workload.Rw_uniform.instance ~rng:(Prng.create ~seed)
                          ~n ~num_objects:(max 2 (n / 3)) ~k:2
                          ~write_fraction:frac
                      in
                      let s = Dtm_core.Rw_greedy.schedule ~strategy ~order metric rw in
                      total := !total + Schedule.makespan s;
                      List.iter
                        (fun v ->
                          Printf.bprintf buf "%d:%d " v (Schedule.time_exn s v))
                        (Schedule.scheduled_nodes s);
                      Buffer.add_char buf '\n')
                    pin_seeds)
                pin_topologies;
              Printf.sprintf "rw %.1f %s %s makespans=%d times=%s" frac sname
                oname !total
                (Digest.to_hex (Digest.string (Buffer.contents buf))))
            [
              ("natural", C.Natural);
              ("desc-degree", C.Desc_degree);
              ("random:5", C.Random_order 5);
            ])
        [ ("slotted", C.Slotted); ("compact", C.Compact) ])
    [ 0.1; 0.5 ]

let offline_expected =
  [
    "walk line:24 feasible ok=3 messages=665 hops=665 trace=6c9a6c8b799199f734a8bd6be6036cdf";
    "replay line:24 feasible ok=3 messages=665 hops=665 wait=549 makespan=203 trace=6c9a6c8b799199f734a8bd6be6036cdf";
    "walk line:24 compressed ok=0 messages=665 hops=665 trace=f130107a9b7ce07851aed4209a08893d";
    "replay line:24 compressed ok=0 messages=665 hops=665 wait=179 makespan=103 trace=f130107a9b7ce07851aed4209a08893d";
    "walk ring:20 feasible ok=3 messages=346 hops=346 trace=5174fb70c9e8da571f123d21c3c5a16a";
    "replay ring:20 feasible ok=3 messages=346 hops=346 wait=325 makespan=117 trace=5174fb70c9e8da571f123d21c3c5a16a";
    "walk ring:20 compressed ok=0 messages=346 hops=346 trace=506972899b61aa92fe3080e99250d47b";
    "replay ring:20 compressed ok=0 messages=346 hops=346 wait=133 makespan=60 trace=506972899b61aa92fe3080e99250d47b";
    "walk grid:8x8 feasible ok=3 messages=1494 hops=1494 trace=307412bdda8acc51890d1a13432ae5ea";
    "replay grid:8x8 feasible ok=3 messages=1494 hops=1494 wait=1001 makespan=149 trace=d6263699d695b1a6a1022b40b8598f64";
    "walk grid:8x8 compressed ok=0 messages=1495 hops=1495 trace=87f8f5af2a7027eaa95a05711a566bb1";
    "replay grid:8x8 compressed ok=0 messages=1495 hops=1495 wait=287 makespan=75 trace=ce02a0a6e12ca0c39455ba309ebda393";
    "walk torus:6x6 feasible ok=3 messages=508 hops=508 trace=7a0d55a9047178d6cc52a782c0cd2bc6";
    "replay torus:6x6 feasible ok=3 messages=508 hops=508 wait=276 makespan=83 trace=4e781f0ab091e111468e573ce9d27b7c";
    "walk torus:6x6 compressed ok=0 messages=509 hops=509 trace=d8ee1a7dec5ac2b88c872404f561de09";
    "replay torus:6x6 compressed ok=0 messages=509 hops=509 wait=74 makespan=42 trace=a7ea2eaa6600583a6fa2402685df2ce7";
    "walk hypercube:5 feasible ok=3 messages=424 hops=424 trace=b9fcded0262f61fcdb9445fa9081b0e1";
    "replay hypercube:5 feasible ok=3 messages=424 hops=424 wait=154 makespan=71 trace=54b296cbda65b86fdd59571ffaf6d507";
    "walk hypercube:5 compressed ok=0 messages=431 hops=431 trace=34eddf71e5bf3f9816ce37cffcb719aa";
    "replay hypercube:5 compressed ok=0 messages=431 hops=431 wait=28 makespan=36 trace=5ec63db29919d263a89e1449e7edc6cd";
    "walk cluster:4x5:g7 feasible ok=3 messages=533 hops=203 trace=8d928f25efed9ef2e61cc0a45c3f48ca";
    "replay cluster:4x5:g7 feasible ok=3 messages=533 hops=203 wait=184 makespan=127 trace=8d928f25efed9ef2e61cc0a45c3f48ca";
    "walk cluster:4x5:g7 compressed ok=0 messages=533 hops=203 trace=ca0f72568130cfcd2cbf5c97f131bfcc";
    "replay cluster:4x5:g7 compressed ok=0 messages=533 hops=203 wait=57 makespan=64 trace=ca0f72568130cfcd2cbf5c97f131bfcc";
    "walk star:5x6 feasible ok=3 messages=1032 hops=1032 trace=68977db848435cd274d8d48b8d2bcf4c";
    "replay star:5x6 feasible ok=3 messages=1032 hops=1032 wait=810 makespan=236 trace=68977db848435cd274d8d48b8d2bcf4c";
    "walk star:5x6 compressed ok=0 messages=1032 hops=1032 trace=50ee661ed42a756604d89898997bc642";
    "replay star:5x6 compressed ok=0 messages=1032 hops=1032 wait=231 makespan=118 trace=50ee661ed42a756604d89898997bc642";
    "walk powerlaw:300x2:s3 feasible ok=3 messages=5871 hops=5871 trace=68aaa94bd4b8d0b1805f7751fdca003a";
    "replay powerlaw:300x2:s3 feasible ok=3 messages=5871 hops=5871 wait=3388 makespan=153 trace=4b93c510e47ab30909480d79cc3d5d36";
    "walk powerlaw:300x2:s3 compressed ok=0 messages=5871 hops=5871 trace=d32d3dd91cb5da6c5b2cab063670d7f9";
    "replay powerlaw:300x2:s3 compressed ok=0 messages=5871 hops=5871 wait=818 makespan=77 trace=3ea87fd60c6e38df1a75ddf3c3073bb9";
  ]

let rw_expected =
  [
    "rw 0.1 slotted natural makespans=867 times=43afdb2e268594a48436dbefcd2f8706";
    "rw 0.1 slotted desc-degree makespans=799 times=ba70dbfd35ee875c6546ed1ea3c92502";
    "rw 0.1 slotted random:5 makespans=923 times=8ffee9f635cf63aacfe1c8724f506300";
    "rw 0.1 compact natural makespans=671 times=ea5af9aadbc4531d05e593c4f945cf7b";
    "rw 0.1 compact desc-degree makespans=596 times=4cfc72d53ea2e7541411497d5e11c3a7";
    "rw 0.1 compact random:5 makespans=692 times=02ded502deabd8d23ff20d02d77fc97f";
    "rw 0.5 slotted natural makespans=1982 times=82f6df7fbd9cf8ca116f46091ff6f15b";
    "rw 0.5 slotted desc-degree makespans=1848 times=4a54d5c6d34c6113f3993cd913875fb7";
    "rw 0.5 slotted random:5 makespans=1923 times=4035b4a98bff1a53e53e1307ab24f7c6";
    "rw 0.5 compact natural makespans=904 times=0c3ab05a6514b48696e3dc46411e42aa";
    "rw 0.5 compact desc-degree makespans=1029 times=c769f0128e57a5373eb5ce39f2ca3222";
    "rw 0.5 compact random:5 makespans=1108 times=4cea199ce22086a528f8b44bd8302f43";
  ]

let test_offline_pins () =
  List.iter2
    (fun e a -> Alcotest.(check string) "schedule expansion" e a)
    offline_expected (offline_pins ())

let test_rw_pins () =
  List.iter2
    (fun e a -> Alcotest.(check string) "read-replication schedule" e a)
    rw_expected (rw_pins ())

(* Discover-and-print helper: when a golden value changes legitimately,
   run with GOLDEN_PRINT=1 to see the new values. *)
let () =
  if Sys.getenv_opt "GOLDEN_PRINT" <> None then begin
    let p v = Printf.printf "%d\n" v in
    p (Schedule.makespan (Dtm_sched.Clique_sched.schedule ~n:32 (uniform ~seed:1 ~n:32 ~w:8 ~k:2)));
    p (Schedule.makespan (Dtm_sched.Line_sched.schedule ~n:64 (uniform ~seed:2 ~n:64 ~w:16 ~k:2)));
    p (Schedule.makespan (Dtm_sched.Ring_sched.schedule ~n:64 (uniform ~seed:3 ~n:64 ~w:16 ~k:2)));
    p (Schedule.makespan (Dtm_sched.Grid_sched.schedule ~rows:8 ~cols:8 (uniform ~seed:4 ~n:64 ~w:16 ~k:2)))
  end

let () =
  Alcotest.run "dtm_golden"
    [
      ( "golden",
        [
          Alcotest.test_case "clique" `Quick test_clique_golden;
          Alcotest.test_case "line" `Quick test_line_golden;
          Alcotest.test_case "ring" `Quick test_ring_golden;
          Alcotest.test_case "grid" `Quick test_grid_golden;
          Alcotest.test_case "cluster" `Quick test_cluster_golden;
          Alcotest.test_case "star" `Quick test_star_golden;
          Alcotest.test_case "engine" `Quick test_engine_golden;
          Alcotest.test_case "online" `Quick test_online_golden;
          Alcotest.test_case "offline expansion pins" `Quick test_offline_pins;
          Alcotest.test_case "read-replication pins" `Quick test_rw_pins;
        ] );
    ]
