(** Seeded adversarial injection generators for the open-system engine
    (the continual-arrival setting of {i Stable Scheduling in
    Transactional Memory}, arXiv 2208.07359).

    A spec describes a Poisson-ish arrival process shaped by a token
    bucket: the system earns [rate] transactions worth of credit per
    step, and whenever at least [burst] credit has accrued the whole
    integer part arrives at once.  [burst = 1] is a smooth trickle at
    rate rho; larger bursts clump arrivals into adversarial batches at
    the same long-run rate.  Object choice is uniform, Zipf-skewed, or
    hot-spot concentrated.

    Everything is driven by one [Prng] seeded from [spec.seed], so two
    sources built from equal specs replay identically — the property
    layer in [test/test_stability.ml] checks this. *)

type obj_dist =
  | Uniform_objects
  | Zipf_objects of float  (** exponent >= 0; id 0 hottest *)
  | Hot_objects of float
      (** each object draw hits object 0 with this probability, else
          uniform *)

type spec = {
  n : int;  (** nodes; the issuing node is uniform *)
  num_objects : int;
  k : int;  (** distinct objects per transaction *)
  rate : float;  (** rho: expected transactions per step, > 0 *)
  burst : int;  (** token-bucket release threshold, >= 1 *)
  dist : obj_dist;
  seed : int;
}

val source : ?limit:int -> spec -> Dtm_online.Stream.source
(** A fresh pull-based source for the spec; [limit] caps the total
    number of transactions (default unbounded).  Arrivals are
    non-decreasing, starting at step 1.  Raises [Invalid_argument] on a
    malformed spec. *)

val source_factory : ?limit:int -> spec -> unit -> Dtm_online.Stream.source
(** [source_factory ?limit spec] packages {!source} for engines that
    take a stream factory, such as [Dtm_online.Sharded.run] — each call
    of the returned thunk is a fresh source with its own generator
    state, so repeated calls draw identically.  Validates the spec once,
    eagerly. *)

val homes : spec -> int array
(** Initial object placement: uniform per object, drawn from a
    seed-derived generator independent of the arrival sequence. *)

val home_of : spec -> int -> int
(** Stateless O(1) placement for streamed instances: the home of each
    object is a hash of [(spec.seed, object)], so million-object
    universes never materialize a placement array
    ([Array.init m (home_of spec)] recovers one when an engine needs
    it).  Deterministic in the spec but {e not} equal to {!homes},
    which stays byte-stable for the closed-system experiments.  Raises
    [Invalid_argument] out of range. *)

val dist_to_string : obj_dist -> string

val describe : spec -> string
(** One-line summary for tables, e.g.
    ["rate 0.300, burst 4, zipf(1.10), k=2, m=64"]. *)
