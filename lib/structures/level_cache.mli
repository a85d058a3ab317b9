(** Adaptive level-based caching policy for tree-like structures (§8.3).

    Nodes at depth ≤ [n] (root = 0) are read through the front-end cache;
    deeper nodes bypass it. Every [period] operations the front-end
    cache's miss ratio α over the window adjusts [n]: α > 50% shrinks the
    cached region, α < 25% grows it — the paper's exact rule. *)

type t

val create : ?initial:int -> ?period:int -> max_depth:int -> unit -> t
val hint : t -> depth:int -> [ `Hot | `Cold ]

val note_op : t -> stats:int * int -> unit
(** Called once per data-structure operation with the cumulative
    (hits, misses) of the front-end cache. *)
