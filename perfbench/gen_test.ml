(* The generator's own test (dune build @perfbench/gen-test), on a
   scaled-down serve-refresh spec:
   - generation is deterministic in the seed (same seed, same bytes;
     another seed, other bytes);
   - after the full mutation stream is applied through [Table] the way
     the daemon applies it, every planted IND and FD still holds and
     every relation keeps its size. *)

open Relational
module W = Workloads
module G = Workload.Gen_schema

let small seed = G.scale 0.02 (W.spec W.Serve_refresh ~seed)

let files dir =
  List.concat_map
    (fun sub ->
      let d = if sub = "" then dir else Filename.concat dir sub in
      Sys.readdir d |> Array.to_list |> List.sort String.compare
      |> List.filter_map (fun f ->
             let p = Filename.concat d f in
             if Sys.is_directory p then None else Some (Filename.concat sub f, W.read_file p)))
    [ ""; "csv"; "programs" ]

let fail msg =
  prerr_endline ("gen_test: " ^ msg);
  exit 1

let () =
  let tmp = Filename.concat (Sys.getcwd ()) "gen-test-tmp" in
  let gen seed sub =
    let out = Filename.concat tmp sub in
    W.write_inputs W.Serve_refresh (small seed) ~seed ~cycles:60 ~out;
    out
  in
  let a = gen 11 "a" and b = gen 11 "b" and c = gen 12 "c" in
  if files a <> files b then fail "same seed, different output";
  if files a = files c then fail "different seeds, same output";
  let spec =
    match
      Dbre.Job_spec.of_args ~ddl:(W.ddl_path a) ~data_dir:(W.csv_dir a) ()
    with
    | Ok s -> s
    | Error e -> fail e
  in
  let db =
    match Dbre.Job.database spec with
    | Ok (db, _) -> db
    | Error e -> fail (Error.to_string e)
  in
  let sizes () =
    List.map
      (fun r -> Table.cardinality (Database.table db r.Relation.name))
      (Schema.relations (Database.schema db))
  in
  let before = sizes () in
  let stream = W.read_mutations a in
  if Array.length stream <> 60 then fail "mutation stream length";
  Array.iter (W.apply_mutation db) stream;
  if sizes () <> before then fail "relation sizes changed";
  let truth = W.read_truth a in
  List.iter
    (fun i ->
      if not (Deps.Ind.satisfied db i) then
        fail ("planted IND broken: " ^ Deps.Ind.to_string i))
    truth.G.planted_inds;
  List.iter
    (fun f ->
      if not (Deps.Fd.satisfied_by (Database.table db f.Deps.Fd.rel) f) then
        fail ("planted FD broken: " ^ Deps.Fd.to_string f))
    truth.G.planted_fds;
  if truth.G.planted_inds = [] || truth.G.planted_fds = [] then fail "no planted dependencies";
  W.rm_rf tmp;
  print_endline "gen_test: ok"
