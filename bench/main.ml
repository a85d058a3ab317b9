(* Benchmark harness entry point: command-line glue over {!Suite.all}.

   One subcommand per table/figure of the paper's evaluation (plus the
   in-text studies), each printing paper-style rows computed from the
   simulation's virtual time and its shape checks. `all` (the default)
   runs every experiment; `bechamel` runs the Bechamel wall-clock
   micro-benchmarks, which no experiment or gate reads. The output
   compared against the paper lives in EXPERIMENTS.md.

   `--json FILE` additionally serializes every cell produced, plus the
   shape checks' pass/fail verdicts, into one asymnvm-bench/1 document
   (see DESIGN.md §6) — the input format of `asymnvm bench-diff`, gated in
   CI against bench/all_baseline.json. *)

open Cmdliner
open Asym_harness

let full_flag =
  let doc = "Run at full scale (paper-sized preloads and op counts); slower." in
  Arg.(value & flag & info [ "full" ] ~doc)

let json_arg =
  let doc =
    "Also write every produced cell and shape-check verdict to $(docv) as an \
     asymnvm-bench/1 JSON document (for `asymnvm bench-diff`)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let print_check (c : Bench_json.check) =
  Fmt.pr "  check %s/%s: %s — %s@." c.experiment c.cname
    (if c.pass then "PASS" else "FAIL")
    c.detail

let execute entries full json =
  let scale = if full then Suite.full else Suite.quick in
  let experiments, checks =
    List.fold_left
      (fun (racc, cacc) (e : Suite.t) ->
        let reports, checks = e.run scale in
        List.iter (fun (_, r) -> Report.print r) reports;
        List.iter print_check checks;
        (racc @ reports, cacc @ checks))
      ([], []) entries
  in
  match json with
  | None -> ()
  | Some path ->
      Bench_json.write ~path (Bench_json.doc ~scale:scale.label ~experiments ~checks);
      Fmt.pr "wrote %s (%d experiments, %d checks)@." path (List.length experiments)
        (List.length checks)

(* Run [entries], write the document, then [after]. *)
let term entries after =
  Term.(
    const (fun full json ->
        execute entries full json;
        after ())
    $ full_flag $ json_arg)

let () =
  let everything = term Suite.all ignore in
  let cmds =
    List.map (fun (e : Suite.t) -> Cmd.v (Cmd.info e.name ~doc:e.doc) (term [ e ] ignore)) Suite.all
    @ [
        Cmd.v (Cmd.info "bechamel" ~doc:"Bechamel wall-clock micro-benchmarks")
          (term [] Bechamel_micro.run);
        Cmd.v
          (Cmd.info "all" ~doc:"Run every experiment")
          everything;
      ]
  in
  let info = Cmd.info "asymnvm-bench" ~doc:"Regenerate the paper's tables and figures" in
  exit (Cmd.eval (Cmd.group ~default:everything info cmds))
