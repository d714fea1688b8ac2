(* Work-queue domain pool.  One mutex guards the queue and every batch
   counter; [work] signals queued tasks, [progress] signals task
   completions.  Joins help (run queued tasks while waiting), which
   makes nested [map] calls deadlock-free without a second scheduler. *)

type task = { run : unit -> unit }

type t = {
  queue : task Queue.t;
  lock : Mutex.t;
  work : Condition.t;
  progress : Condition.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  size : int;
}

let jobs t = t.size

let worker pool =
  (* Backtrace recording is per domain in OCaml 5: without this a task
     that raises here re-raises on the joining domain with an empty
     backtrace instead of its origin. *)
  Printexc.record_backtrace true;
  let rec next () =
    if pool.stopping then None
    else if Queue.is_empty pool.queue then begin
      Condition.wait pool.work pool.lock;
      next ()
    end
    else Some (Queue.pop pool.queue)
  in
  let rec loop () =
    Mutex.lock pool.lock;
    let t = next () in
    Mutex.unlock pool.lock;
    match t with
    | None -> ()
    | Some t ->
      t.run ();
      loop ()
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      queue = Queue.create ();
      lock = Mutex.create ();
      work = Condition.create ();
      progress = Condition.create ();
      stopping = false;
      workers = [];
      size = jobs;
    }
  in
  pool.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopping <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.workers;
  pool.workers <- []

let map pool f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when pool.size = 1 && pool.workers = [] -> List.map f xs
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let out = Array.make n None in
    (* Guarded by [pool.lock]: how many of this batch's slots are empty. *)
    let remaining = ref n in
    let task i =
      {
        run =
          (fun () ->
            let r =
              try Ok (f arr.(i))
              with e -> Error (e, Printexc.get_raw_backtrace ())
            in
            Mutex.lock pool.lock;
            out.(i) <- Some r;
            decr remaining;
            Condition.broadcast pool.progress;
            Mutex.unlock pool.lock);
      }
    in
    Mutex.lock pool.lock;
    for i = 0 to n - 1 do
      Queue.push (task i) pool.queue
    done;
    Condition.broadcast pool.work;
    (* Help until every slot of this batch is filled.  Tasks popped here
       may belong to other batches (nested maps): running them is what
       keeps a blocked join from wasting its domain or deadlocking. *)
    let rec drain () =
      if !remaining > 0 then
        if not (Queue.is_empty pool.queue) then begin
          let t = Queue.pop pool.queue in
          Mutex.unlock pool.lock;
          t.run ();
          Mutex.lock pool.lock;
          drain ()
        end
        else begin
          Condition.wait pool.progress pool.lock;
          drain ()
        end
    in
    drain ();
    Mutex.unlock pool.lock;
    (* First failure in submission order wins: deterministic regardless
       of which domain hit it first. *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | _ -> ())
      out;
    Array.to_list
      (Array.map (function Some (Ok v) -> v | _ -> assert false) out)

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* The shared default pool                                            *)
(* ------------------------------------------------------------------ *)

let default_lock = Mutex.create ()
let configured_jobs = ref None
let shared = ref None
let exit_hook = ref false

let recommended () = max 1 (Domain.recommended_domain_count ())

let default_jobs () =
  Mutex.lock default_lock;
  let j = match !configured_jobs with Some j -> j | None -> recommended () in
  Mutex.unlock default_lock;
  j

let set_default_jobs j =
  if j < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  Mutex.lock default_lock;
  configured_jobs := Some j;
  Mutex.unlock default_lock

let default () =
  Mutex.lock default_lock;
  let wanted = match !configured_jobs with Some j -> j | None -> recommended () in
  let pool =
    match !shared with
    | Some p when p.size = wanted -> p
    | prev ->
      Option.iter shutdown prev;
      let p = create ~jobs:wanted in
      shared := Some p;
      if not !exit_hook then begin
        exit_hook := true;
        at_exit (fun () ->
            Mutex.lock default_lock;
            let p = !shared in
            shared := None;
            Mutex.unlock default_lock;
            Option.iter shutdown p)
      end;
      p
  in
  Mutex.unlock default_lock;
  pool

let run f xs = map (default ()) f xs
