(** The machine-readable bench pipeline (DESIGN.md §6).

    [bench/main.exe --json FILE] serializes every table/figure cell it
    printed, plus EXPERIMENTS.md's shape expectations as pass/fail
    verdicts, into one [asymnvm-bench/1] document; [asymnvm bench-diff]
    compares two such documents cell by cell for regression gating
    (bench/baseline.json is the committed quick-scale reference). *)

type check = {
  experiment : string;
  cname : string;
  pass : bool;
  detail : string;  (** threshold applied, or the offending row *)
}

val doc :
  scale:string -> experiments:(string * Report.t) list -> checks:check list -> Asym_obs.Json.t

val write : path:string -> Asym_obs.Json.t -> unit
val of_file : string -> Asym_obs.Json.t

val diff :
  ?tolerance:float -> old_doc:Asym_obs.Json.t -> new_doc:Asym_obs.Json.t -> unit -> string list
(** Failure lines: numeric cells differing beyond [tolerance] (relative,
    default 2%), non-numeric cells differing at all, missing
    experiments/rows, and shape-check verdict flips. Empty means the
    documents agree. *)
