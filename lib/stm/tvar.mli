(** Transactional objects: one [Atomic] word per object holding a
    DSTM-style locator.

    A locator freezes the object's state relative to its owning
    transaction: if the owner committed, the logical value is
    [new_value] at version [old_version + 1]; in every other case
    ([Active] or [Aborted]) it is [old_value] at [old_version].
    Opening an object for writing replaces the whole locator by CAS
    with a fresh record pointing at the opener's descriptor — so a
    transaction's writes to many objects all take effect at the single
    commit CAS on its descriptor, and aborted owners need no cleanup
    pass (their locators simply resolve to the old value).

    Locator records are immutable and freshly allocated per open (one
    5-word block per CAS offered); together with fresh descriptors per
    attempt this rules out ABA on the object word.  Reading allocates
    nothing: the resolution is exposed as two projections,
    {!stable_version} and {!stable_value}, never as a pair.
    [Atomic.get]/[compare_and_set] are sequentially consistent in
    OCaml 5, so a reader that observes a [Committed] owner also
    observes the [new_value] written before that commit. *)

type locator = {
  owner : Desc.t;
  old_version : int;  (** version before [owner]'s write *)
  old_value : int;
  new_value : int;
}

type t = { id : int; loc : locator Atomic.t }

val create : id:int -> int -> t
(** [create ~id v] — a fresh object with committed value [v] at
    version 0. *)

val stable_version : locator -> int
(** The version the locator resolves to right now, per the owner's
    current status: [old_version + 1] once the owner committed,
    [old_version] otherwise. *)

val stable_value : locator -> int
(** The value the locator resolves to right now: [new_value] once the
    owner committed, [old_value] otherwise.  The two projections read
    the owner's status separately, so they agree only when that status
    is final ([Committed] or [Aborted]); neither allocates. *)

val version : t -> int
(** Invisible read: the current stable version.  Leaves no trace in
    shared memory — callers must revalidate at commit. *)

val value : t -> int
(** The current stable value. *)
