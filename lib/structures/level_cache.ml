(** Adaptive level-based caching policy for tree-like structures (§8.3).

    Nodes above threshold level [n] (counting from the root, depth 0) are
    read through the front-end cache; deeper nodes bypass it. Every
    [period] operations the front-end cache's miss ratio α over the window
    decides the adjustment: α > 50% shrinks the cached region, α < 25%
    grows it — the paper's exact rule. *)

type t = {
  mutable n : int;
  max_depth : int;
  period : int;
  mutable ops : int;
  mutable last_hits : int;
  mutable last_misses : int;
}

let create ?(initial = 6) ?(period = 64) ~max_depth () =
  { n = initial; max_depth; period; ops = 0; last_hits = 0; last_misses = 0 }

let hint t ~depth : [ `Hot | `Cold ] = if depth <= t.n then `Hot else `Cold

(* [stats] are the cumulative (hits, misses) of the front-end cache. *)
let note_op t ~stats:(hits, misses) =
  t.ops <- t.ops + 1;
  if t.ops mod t.period = 0 then begin
    let dh = hits - t.last_hits and dm = misses - t.last_misses in
    t.last_hits <- hits;
    t.last_misses <- misses;
    let total = dh + dm in
    if total > 0 then begin
      let alpha = float_of_int dm /. float_of_int total in
      if alpha > 0.5 && t.n > 1 then t.n <- t.n - 1
      else if alpha < 0.25 && t.n < t.max_depth then t.n <- t.n + 1
    end
  end
