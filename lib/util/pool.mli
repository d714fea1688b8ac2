(** Fixed-size domain pool with deterministic, order-preserving joins.

    The experiment suite measures thousands of independent per-seed
    instances; this module fans that work out across OCaml 5 domains
    while guaranteeing that parallel output is {e byte-identical} to a
    sequential run: results are merged in submission order, every task
    owns its inputs (each seed builds its own {!Prng.t}), and the first
    raised exception is re-raised deterministically (lowest submission
    index wins).

    Blocked joins {e help}: a caller waiting for its batch pops and runs
    queued tasks instead of idling, so nested [map] calls from inside a
    pool task (e.g. the registry parallelizing over experiments while
    each experiment parallelizes over seeds) cannot deadlock and still
    use every domain. *)

type t

val create : jobs:int -> t
(** [create ~jobs] makes a pool of total parallelism [jobs] >= 1
    (the caller participates, so [jobs - 1] worker domains are
    spawned).  [jobs = 1] spawns nothing and runs everything in the
    calling domain. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element of [xs], possibly in
    parallel, and returns the results in the order of [xs].  If any
    application raises, the exception of the earliest-submitted failing
    element is re-raised after the whole batch has settled.

    The join is a barrier: its lock hand-off makes every write an
    application performed visible to the caller, and to the next batch,
    without further synchronization.  Rounds of [map] therefore run
    bulk-synchronous cells, provided no location is written by two
    applications of one batch. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent.  Any [map] still in flight in
    another domain finishes (its caller helps), but new work submitted
    after [shutdown] runs in the submitting domain only. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down
    afterwards (also on exceptions). *)

(** {1 The shared default pool}

    Library code ([Dtm_expt.Runner], [Dtm_analysis.Analyze], ...) draws
    on one process-wide pool so that a single [-j N] flag controls the
    parallelism of the whole measurement stack. *)

val default_jobs : unit -> int
(** The configured default parallelism; initially
    [Domain.recommended_domain_count ()]. *)

val set_default_jobs : int -> unit
(** [set_default_jobs n] makes subsequent {!default} pools use
    parallelism [n] >= 1 ([-j N]).  Call it before the first {!run};
    changing it later replaces the shared pool at the next {!default}
    call (the old one is shut down when idle). *)

val default : unit -> t
(** The shared pool, created on first use with {!default_jobs}.
    Worker domains are joined automatically at process exit. *)

val run : ('a -> 'b) -> 'a list -> 'b list
(** [run f xs] = [map (default ()) f xs]. *)
