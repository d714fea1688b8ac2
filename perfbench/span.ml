(* Spans for the traced run.

   The benchmark wraps each call it makes into a library layer in a span
   (name, layer, start, end, parent) tagged with the id of the workload
   iteration or instance it belongs to.  Spans are kept in memory and
   written out as JSON when the run ends; nothing inside the library is
   instrumented.  Only the main domain records spans. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root *)
  run : int;  (** iteration or instance id *)
  layer : string;
  name : string;
  t0 : float;
  t1 : float;
}

let spans : t list ref = ref []
let next_id = ref 0
let current = ref (-1)

let with_ ~run ~layer name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let t0 = Measure.now () in
  let r = f () in
  let t1 = Measure.now () in
  current := parent;
  spans := { id; parent; run; layer; name; t0; t1 } :: !spans;
  r

(* Self time of every recorded span (its duration minus the durations of
   its direct children), summed per layer for each group of run ids. *)
let self_by_run ~group () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let per_run = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      let tbl =
        match Hashtbl.find_opt per_run (group s.run) with
        | Some t -> t
        | None ->
          let t = Hashtbl.create 8 in
          Hashtbl.replace per_run (group s.run) t;
          t
      in
      Hashtbl.replace tbl s.layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.layer)))
    !spans;
  per_run

(* [move tbl ~src ~dst x] re-attributes [x] seconds of one run's self time
   from layer [src] to layer [dst] — used where one library call spans two
   layers and a reference run outside the timing gives the split. *)
let move tbl ~src ~dst x =
  let get l = Option.value ~default:0.0 (Hashtbl.find_opt tbl l) in
  Hashtbl.replace tbl src (get src -. x);
  Hashtbl.replace tbl dst (get dst +. x)

(* Reports, as medians over runs (or over [group]s of run ids), each
   layer's self time, the traced wall time of a run, the part of it no
   layer accounts for (the benchmark's own code between calls, recorded
   under layer "bench") and the tracing overhead: traced wall minus the
   [untraced] wall of the same repetition. *)
let report ?(group = Fun.id) ?(adjust = fun _ -> ()) ~untraced () =
  let per_run = self_by_run ~group () in
  let runs = Hashtbl.fold (fun _ tbl acc -> tbl :: acc) per_run [] in
  List.iter adjust runs;
  let med layer =
    Measure.median
      (List.map (fun t -> Option.value ~default:0.0 (Hashtbl.find_opt t layer)) runs)
  in
  List.iter (fun l -> Measure.metric ("self." ^ l ^ "_s") (med l)) Measure.layers;
  let wall =
    Measure.median (List.map (fun t -> Hashtbl.fold (fun _ v a -> a +. v) t 0.0) runs)
  in
  Measure.metric "trace.wall_s" wall;
  Measure.metric "trace.unaccounted_s" (med "bench");
  Measure.metric "trace.untraced_wall_s" untraced;
  Measure.metric "trace.overhead_s" (wall -. untraced)

(* Writes every span in the order they were opened, with times relative to
   the first one. *)
let write ~path ~env_json =
  let all = List.sort (fun a b -> compare a.id b.id) !spans in
  let base = match all with s :: _ -> s.t0 | [] -> 0.0 in
  let oc = open_out path in
  Printf.fprintf oc "{\"env\": %s,\n \"spans\": [" env_json;
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n  {\"id\": %d, \"parent\": %d, \"run\": %d, \"layer\": %S, \
         \"name\": %S, \"start_us\": %.1f, \"end_us\": %.1f}"
        (if i = 0 then "" else ",")
        s.id s.parent s.run s.layer s.name
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. base) *. 1e6))
    all;
  output_string oc "\n ]}\n";
  close_out oc
