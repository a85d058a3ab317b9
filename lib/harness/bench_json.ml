(* Machine-readable bench output: every table/figure cell as structured
   records, the shape checks {!Suite} computes as pass/fail verdicts, and
   a comparator for regression gating (asymnvm bench-diff). *)

module Obs = Asym_obs

let schema = "asymnvm-bench/1"

type check = { experiment : string; cname : string; pass : bool; detail : string }

(* -- cell parsing ----------------------------------------------------------- *)

(* Cells are display strings ("154", "23.5", "1.95x", "29.2%", "–").
   Strip the unit suffix; dashes and labels are non-numeric. *)
let cell_num s =
  let s = String.trim s in
  let n = String.length s in
  let s =
    if n > 0 && (s.[n - 1] = 'x' || s.[n - 1] = '%') then String.sub s 0 (n - 1) else s
  in
  float_of_string_opt s

(* -- document --------------------------------------------------------------- *)

let strings xs = Obs.Json.List (List.map (fun s -> Obs.Json.String s) xs)

let report_json (name, r) =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String name);
      ("title", Obs.Json.String (Report.title r));
      ("header", strings (Report.header r));
      ("rows", Obs.Json.List (List.map strings (Report.rows r)));
      ("notes", strings (Report.notes r));
    ]

let check_json c =
  Obs.Json.Obj
    [
      ("experiment", Obs.Json.String c.experiment);
      ("check", Obs.Json.String c.cname);
      ("pass", Obs.Json.Bool c.pass);
      ("detail", Obs.Json.String c.detail);
    ]

let doc ~scale ~experiments ~checks =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String schema);
      ("scale", Obs.Json.String scale);
      ("experiments", Obs.Json.List (List.map report_json experiments));
      ("checks", Obs.Json.List (List.map check_json checks));
    ]

let write ~path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Obs.Json.to_string json))

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Obs.Json.parse (really_input_string ic (in_channel_length ic)))

(* -- diff ------------------------------------------------------------------- *)

let experiment_list json =
  match Obs.Json.member "experiments" json with
  | Some (Obs.Json.List xs) ->
      List.filter_map
        (fun e ->
          match Obs.Json.member "name" e with
          | Some (Obs.Json.String n) -> Some (n, e)
          | _ -> None)
        xs
  | _ -> []

let rows_of e =
  match Obs.Json.member "rows" e with
  | Some (Obs.Json.List rows) ->
      List.map (fun r -> List.map Obs.Json.to_str (Obs.Json.to_list r)) rows
  | _ -> []

let check_list json =
  match Obs.Json.member "checks" json with
  | Some (Obs.Json.List xs) ->
      List.filter_map
        (fun c ->
          match
            (Obs.Json.member "experiment" c, Obs.Json.member "check" c, Obs.Json.member "pass" c)
          with
          | Some (Obs.Json.String e), Some (Obs.Json.String n), Some (Obs.Json.Bool p) ->
              Some ((e, n), p)
          | _ -> None)
        xs
  | _ -> []

let str_member key json =
  match Obs.Json.member key json with Some (Obs.Json.String s) -> Some s | _ -> None

(* Compare two bench documents. Numeric cells must agree within
   [tolerance] (relative); non-numeric cells exactly; shape-check
   verdicts must not flip. Returns human-readable failure lines. *)
let diff ?(tolerance = 0.02) ~old_doc ~new_doc () =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (match (str_member "scale" old_doc, str_member "scale" new_doc) with
  | Some a, Some b when a <> b -> fail "scale mismatch: %s vs %s (not comparable)" a b
  | _ -> ());
  let olds = experiment_list old_doc and news = experiment_list new_doc in
  List.iter
    (fun (name, oe) ->
      match List.assoc_opt name news with
      | None -> fail "%s: experiment missing from new document" name
      | Some ne ->
          let orows = rows_of oe and nrows = rows_of ne in
          if List.length orows <> List.length nrows then
            fail "%s: row count %d -> %d" name (List.length orows) (List.length nrows)
          else
            List.iteri
              (fun ri orow ->
                let nrow = List.nth nrows ri in
                let label = match orow with l :: _ -> l | [] -> string_of_int ri in
                List.iteri
                  (fun ci ocell ->
                    match List.nth_opt nrow ci with
                    | None -> fail "%s/%s: column %d disappeared" name label ci
                    | Some ncell -> (
                        match (cell_num ocell, cell_num ncell) with
                        | Some ov, Some nv ->
                            let denom = Float.max (Float.abs ov) 1e-9 in
                            let rel = Float.abs (nv -. ov) /. denom in
                            if rel > tolerance then
                              fail "%s/%s[%d]: %s -> %s (%.1f%% > %.1f%% tolerance)" name
                                label ci ocell ncell (100. *. rel) (100. *. tolerance)
                        | _ ->
                            if ocell <> ncell then
                              fail "%s/%s[%d]: %S -> %S" name label ci ocell ncell))
                  orow)
              orows)
    olds;
  List.iter
    (fun ((e, n), opass) ->
      match List.assoc_opt (e, n) (check_list new_doc) with
      | None -> fail "%s/%s: shape check missing from new document" e n
      | Some npass ->
          if opass && not npass then fail "%s/%s: shape check regressed (pass -> FAIL)" e n
          else if (not opass) && npass then fail "%s/%s: shape check now passes (refresh baseline)" e n)
    (check_list old_doc);
  List.rev !failures
