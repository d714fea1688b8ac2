(* Chronological traces stored as flat struct-of-arrays.  The sort order
   is exactly [Event.compare_chronological]: time, then phase (arrive <
   execute < depart), then the constructor's fields in declaration order
   — absent fields are stored as 0 on both sides of any same-phase
   comparison, so the flat comparator and the structural one agree. *)

type t = {
  count : int;
  time : int array;
  phase : int array; (* 0 arrive, 1 execute, 2 depart, as Event.phase *)
  obj : int array;
  node : int array;
  dest : int array;
}

(* Sorting dominates trace construction, and a closure comparing five
   arrays per call is slow.  When the fields fit in 62 bits total, each
   event packs into one int whose natural order is exactly the
   lexicographic (time, phase, obj, node, dest) order — events equal in
   all five fields are interchangeable — so a plain int sort suffices. *)
let bits_for x =
  let rec go b v = if v = 0 then max b 1 else go (b + 1) (v lsr 1) in
  go 0 x

(* Stable LSD radix sort of non-negative keys, byte digits.  A generic
   [Array.sort] pays an unspecialized closure call per comparison; over
   the packed keys that call is the whole cost, and counting passes
   remove it. *)
let radix_sort_nonneg keys count =
  let maxk = ref 0 in
  for i = 0 to count - 1 do
    if keys.(i) > !maxk then maxk := keys.(i)
  done;
  let tmp = Array.make (max count 1) 0 in
  let counts = Array.make 256 0 in
  let src = ref keys and dst = ref tmp in
  let shift = ref 0 in
  while !maxk lsr !shift > 0 do
    Array.fill counts 0 256 0;
    let s = !src and d = !dst in
    for i = 0 to count - 1 do
      let dig = (Array.unsafe_get s i lsr !shift) land 255 in
      counts.(dig) <- counts.(dig) + 1
    done;
    let acc = ref 0 in
    for dig = 0 to 255 do
      let c = counts.(dig) in
      counts.(dig) <- !acc;
      acc := !acc + c
    done;
    for i = 0 to count - 1 do
      let k = Array.unsafe_get s i in
      let dig = (k lsr !shift) land 255 in
      Array.unsafe_set d counts.(dig) k;
      counts.(dig) <- counts.(dig) + 1
    done;
    let t = !src in
    src := !dst;
    dst := t;
    shift := !shift + 8
  done;
  if !src != keys then Array.blit !src 0 keys 0 count

let of_arena_packed count at ap ao an ad ~bt ~bo ~bn ~bd =
  let keys = Array.make count 0 in
  let so = bn + bd and sn = bd in
  let sp = bo + bn + bd and st = 2 + bo + bn + bd in
  for i = 0 to count - 1 do
    keys.(i) <-
      (at.(i) lsl st) lor (ap.(i) lsl sp) lor (ao.(i) lsl so)
      lor (an.(i) lsl sn) lor ad.(i)
  done;
  radix_sort_nonneg keys count;
  ignore bt;
  let time = Array.make count 0 and phase = Array.make count 0 in
  let obj = Array.make count 0 and node = Array.make count 0 in
  let dest = Array.make count 0 in
  let mask b = (1 lsl b) - 1 in
  let mo = mask bo and mn = mask bn and md = mask bd in
  for i = 0 to count - 1 do
    let k = keys.(i) in
    time.(i) <- k lsr st;
    phase.(i) <- (k lsr sp) land 3;
    obj.(i) <- (k lsr so) land mo;
    node.(i) <- (k lsr sn) land mn;
    dest.(i) <- k land md
  done;
  { count; time; phase; obj; node; dest }

let of_arena arena =
  let count = Event_arena.length arena in
  let at, ap, ao, an, ad = Event_arena.raw arena in
  let maxof a =
    let m = ref 0 in
    for i = 0 to count - 1 do
      if a.(i) > !m then m := a.(i)
    done;
    !m
  in
  let nonneg a =
    let ok = ref true in
    for i = 0 to count - 1 do
      if a.(i) < 0 then ok := false
    done;
    !ok
  in
  let bt = bits_for (maxof at) and bo = bits_for (maxof ao) in
  let bn = bits_for (maxof an) and bd = bits_for (maxof ad) in
  if
    count > 0
    && bt + 2 + bo + bn + bd <= 62
    && nonneg at && nonneg ao && nonneg an && nonneg ad
  then
    of_arena_packed count at ap ao an ad ~bt ~bo ~bn ~bd
  else begin
    let idx = Array.init count Fun.id in
    let cmp i j =
      let c = Int.compare at.(i) at.(j) in
      if c <> 0 then c
      else
        let c = Int.compare ap.(i) ap.(j) in
        if c <> 0 then c
        else
          let c = Int.compare ao.(i) ao.(j) in
          if c <> 0 then c
          else
            let c = Int.compare an.(i) an.(j) in
            if c <> 0 then c else Int.compare ad.(i) ad.(j)
    in
    Array.sort cmp idx;
    let pick src = Array.init count (fun k -> src.(idx.(k))) in
    {
      count;
      time = pick at;
      phase = pick ap;
      obj = pick ao;
      node = pick an;
      dest = pick ad;
    }
  end

let of_events events =
  let arena = Event_arena.create () in
  List.iter
    (fun e ->
      match e with
      | Event.Depart { obj; node; dest; time } ->
        Event_arena.emit_depart arena ~obj ~node ~dest ~time
      | Event.Arrive { obj; node; time } ->
        Event_arena.emit_arrive arena ~obj ~node ~time
      | Event.Execute { node; time } -> Event_arena.emit_execute arena ~node ~time)
    events;
  of_arena arena

let get t i =
  match t.phase.(i) with
  | 0 -> Event.Arrive { obj = t.obj.(i); node = t.node.(i); time = t.time.(i) }
  | 1 -> Event.Execute { node = t.node.(i); time = t.time.(i) }
  | _ ->
    Event.Depart
      { obj = t.obj.(i); node = t.node.(i); dest = t.dest.(i); time = t.time.(i) }

let events t = List.init t.count (get t)
let length t = t.count

let check_single_copy t ~initial_pos =
  let pos = Array.copy initial_pos in
  (* None in [in_flight] means at [pos]; Some dest means travelling. *)
  let in_flight = Array.make (Array.length initial_pos) None in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  for i = 0 to t.count - 1 do
    match t.phase.(i) with
    | 2 ->
      let obj = t.obj.(i) and node = t.node.(i) and dest = t.dest.(i) in
      if in_flight.(obj) <> None then fail "object %d departed while in flight" obj
      else if pos.(obj) <> node then
        fail "object %d departed from %d but is at %d" obj node pos.(obj)
      else in_flight.(obj) <- Some dest
    | 0 -> (
      let obj = t.obj.(i) and node = t.node.(i) in
      match in_flight.(obj) with
      | Some dest when dest = node ->
        in_flight.(obj) <- None;
        pos.(obj) <- node
      | Some dest -> fail "object %d arrived at %d but headed to %d" obj node dest
      | None -> fail "object %d arrived without departing" obj)
    | _ -> ()
  done;
  match !err with None -> Ok () | Some e -> Error e

let check_executes_once t =
  let seen = Hashtbl.create 64 in
  let err = ref None in
  for i = 0 to t.count - 1 do
    if t.phase.(i) = 1 then begin
      let node = t.node.(i) in
      if Hashtbl.mem seen node && !err = None then
        err := Some (Printf.sprintf "node %d executed twice" node)
      else Hashtbl.replace seen node ()
    end
  done;
  match !err with None -> Ok () | Some e -> Error e

let raw t = (t.count, t.time, t.phase, t.obj, t.node, t.dest)
