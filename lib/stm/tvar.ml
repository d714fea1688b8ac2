type locator = {
  owner : Desc.t;
  old_version : int;
  old_value : int;
  new_value : int;
}

type t = { id : int; loc : locator Atomic.t }

(* The root locator's owner is pre-committed, so it resolves to version
   old_version + 1 and value new_value; seeding old_version with -1 makes the
   initial committed state version 0. *)
let create ~id value =
  {
    id;
    loc =
      Atomic.make
        {
          owner = Desc.committed_root ();
          old_version = -1;
          old_value = value;
          new_value = value;
        };
  }

(* Two projections rather than one [(version, value)] pair: the commit
   path reads versions on every read and validation, and a pair would be
   a heap block each time. *)
let stable_version l =
  match Desc.status l.owner with
  | Desc.Committed -> l.old_version + 1
  | Desc.Active | Desc.Aborted -> l.old_version

let stable_value l =
  match Desc.status l.owner with
  | Desc.Committed -> l.new_value
  | Desc.Active | Desc.Aborted -> l.old_value

let version t = stable_version (Atomic.get t.loc)
let value t = stable_value (Atomic.get t.loc)
