(** Small descriptive-statistics helpers for the experiment harness. *)

val mean : float array -> float
(** Arithmetic mean; raises [Invalid_argument] on an empty array. *)

val stddev : float array -> float
(** Sample standard deviation (n-1 denominator); 0 for arrays of length
    <= 1. *)

val min_max : float array -> float * float

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0, 100], by linear interpolation on the
    sorted data. *)

val median : float array -> float

val geometric_mean : float array -> float
(** Requires strictly positive entries. *)

val linear_regression : (float * float) array -> float * float
(** [linear_regression pts] returns [(slope, intercept)] of the
    least-squares line through [pts].  Requires >= 2 points with distinct
    abscissae. *)

val log2_slope : (float * float) array -> float
(** Slope of [log2 y] against [log2 x]: the empirical growth exponent.
    Requires positive coordinates. *)

val ranks : float array -> float array
(** Fractional (average) 1-based ranks: ties share the mean of the rank
    range they span. *)

val spearman : float array -> float array -> float
(** Spearman rank correlation: Pearson correlation of the fractional
    ranks, in [-1, 1].  Returns 0 when either side is constant (no
    ordering information).  Raises [Invalid_argument] on mismatched
    lengths or fewer than 2 points. *)

val histogram : float array -> bins:int -> (float * int) array
(** [histogram xs ~bins] buckets [xs] into [bins] equal-width bins over
    [min, max]; returns (bin lower edge, count). *)

(** Bounded sliding window of integer samples (e.g. latencies in steps)
    with exact nearest-rank percentiles.  The ring is allocated at
    [create] and [add] never allocates, so a 10^7-transaction
    steady-state run can record every latency without GC pressure.  A
    percentile query copies the live samples once (report-time only) and
    finds each requested rank by in-place selection, so {!percentiles}
    answers several ranks for the price of one copy.  Once more than
    [capacity] samples arrive, the window holds the most recent
    [capacity] of them. *)
module Window : sig
  type t

  val create : int -> t
  (** [create capacity] with [capacity >= 1]. *)

  val capacity : t -> int

  val length : t -> int
  (** Live samples currently in the window ([<= capacity]). *)

  val total : t -> int
  (** Samples ever added, including ones that have rolled out. *)

  val clear : t -> unit
  val add : t -> int -> unit

  val percentile : t -> float -> int
  (** Exact nearest-rank percentile over the window: the smallest sample
      with at least [ceil (p/100 * length)] samples [<=] it.  Always a
      value that actually occurred.  Raises [Invalid_argument] on an
      empty window or [p] outside [0, 100]. *)

  val percentiles : t -> float array -> int array
  (** [percentiles w ps] is [Array.map (percentile w) ps], computed on
      one copy of the live samples — the way a report asks for p50, p99
      and p99.9 together.  Raises as {!percentile} does. *)

  val p50 : t -> int
  val p99 : t -> int
  val p999 : t -> int

  val max_sample : t -> int
  val mean : t -> float

  val merge : capacity:int -> t list -> t
  (** [merge ~capacity ws] is a fresh window fed every live sample of the
      windows in [ws], taken in list order and oldest-first within each
      window, with the rolled-out portion of each [total] carried over —
      so [total (merge ~capacity ws) = sum of totals].  Per-shard
      latency windows merge into one global window this way; the result
      is deterministic in the order of [ws]. *)
end
