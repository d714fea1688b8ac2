(** The weighted transaction dependency (conflict) graph H of Section 2.3.

    Nodes are transactions (identified by their network node); an edge
    joins two transactions that share at least one object, weighted by the
    distance between their nodes in the communication graph. *)

type t

val build : Dtm_graph.Metric.t -> Instance.t -> t

val of_pairs : Dtm_graph.Metric.t -> Instance.t -> (int * int) list -> t
(** [of_pairs metric inst pairs] is H with exactly the given conflict
    edges, in either orientation and possibly repeated — for conflict
    relations other than "shares an object", such as read replication's
    write-aware pairs.  Raises [Invalid_argument] on a pair [(v, v)] or
    a node outside [inst]. *)

val conflicts : t -> int -> (int * int) array
(** [conflicts t v] is the array of [(neighbor, weight)] conflicts of the
    transaction at node [v] (empty if none or no transaction).  Do not
    mutate. *)

val hmax : t -> int
(** Largest edge weight in H (1-distance lower bound on any schedule with
    a conflict); 0 when H has no edges. *)

val max_degree : t -> int
(** ∆: largest number of neighbors of any transaction. *)

val weighted_degree : t -> int
(** Γ = hmax · ∆ (the paper's bound on the colors the greedy scheme
    needs, plus one). *)

val num_conflicts : t -> int
(** Number of edges of H. *)
