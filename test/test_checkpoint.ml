(* Checkpoint/resume: a run with [~checkpoint_dir] leaves one artifact
   per stage; resuming from those artifacts reproduces the
   uncheckpointed result without consulting the expert again; corrupt
   checkpoints are silently recomputed. *)

open Dbre

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir name =
  rm_rf name;
  name

let hospital_config () =
  let s = Workload.Scenarios.hospital in
  {
    Pipeline.default_config with
    Pipeline.oracle = s.Workload.Scenarios.oracle ();
  }

let run_hospital ?checkpoint_dir ?resume_from () =
  let s = Workload.Scenarios.hospital in
  Pipeline.run ~config:(hospital_config ()) ?checkpoint_dir ?resume_from
    (s.Workload.Scenarios.database ())
    (Job_spec.Programs s.Workload.Scenarios.programs)

let all_stages =
  [
    Checkpoint.Ind; Checkpoint.Lhs; Checkpoint.Rhs; Checkpoint.Restruct;
    Checkpoint.Translate;
  ]

let test_checkpoint_files () =
  let dir = fresh_dir "_ckpt_files" in
  ignore (run_hospital ~checkpoint_dir:dir ());
  List.iter
    (fun stage ->
      let p = Checkpoint.path ~dir stage in
      Alcotest.(check bool) (p ^ " written") true (Sys.file_exists p))
    all_stages;
  Alcotest.(check bool) "translate marker valid" true
    (Checkpoint.translate_done ~dir);
  rm_rf dir

let test_resume_roundtrip () =
  let dir = fresh_dir "_ckpt_resume" in
  let baseline = run_hospital () in
  ignore (run_hospital ~checkpoint_dir:dir ());
  (* lose the last checkpoint: Translate must be recomputed from the
     restored Restruct artifact *)
  Sys.remove (Checkpoint.path ~dir Checkpoint.Translate);
  let resumed = run_hospital ~resume_from:dir () in
  Alcotest.(check string) "same EER schema"
    (Er.Text_render.to_string
       baseline.Pipeline.translate_result.Translate.eer)
    (Er.Text_render.to_string
       resumed.Pipeline.translate_result.Translate.eer);
  Alcotest.(check bool) "same normal forms" true
    (Pipeline.nf_report baseline = Pipeline.nf_report resumed);
  Alcotest.(check bool) "same elicited FDs" true
    (baseline.Pipeline.rhs_result.Rhs_discovery.fds
    = resumed.Pipeline.rhs_result.Rhs_discovery.fds);
  (* every stage came off disk: the expert was never consulted *)
  Alcotest.(check int) "no oracle events on resume" 0
    (List.length resumed.Pipeline.events);
  rm_rf dir

let test_corrupt_checkpoint_recomputed () =
  let dir = fresh_dir "_ckpt_corrupt" in
  let generate () =
    Workload.Gen_schema.generate Workload.Gen_schema.default_spec
  in
  let g = generate () in
  let baseline =
    Pipeline.run ~checkpoint_dir:dir g.Workload.Gen_schema.db
      (Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
  in
  (* mangle the RHS-Discovery artifact: resume must recompute it *)
  Out_channel.with_open_bin (Checkpoint.path ~dir Checkpoint.Rhs) (fun oc ->
      Out_channel.output_string oc "((( not a checkpoint");
  let g2 = generate () in
  let resumed =
    Pipeline.run ~resume_from:dir g2.Workload.Gen_schema.db
      (Job_spec.Equijoins g2.Workload.Gen_schema.equijoins)
  in
  Alcotest.(check bool) "same INDs" true
    (baseline.Pipeline.ind_result.Ind_discovery.inds
    = resumed.Pipeline.ind_result.Ind_discovery.inds);
  Alcotest.(check bool) "same FDs after recompute" true
    (baseline.Pipeline.rhs_result.Rhs_discovery.fds
    = resumed.Pipeline.rhs_result.Rhs_discovery.fds);
  Alcotest.(check string) "same EER schema"
    (Er.Text_render.to_string
       baseline.Pipeline.translate_result.Translate.eer)
    (Er.Text_render.to_string resumed.Pipeline.translate_result.Translate.eer);
  rm_rf dir

let test_missing_dir_is_fresh_run () =
  (* resuming from a directory that does not exist just recomputes *)
  let baseline = run_hospital () in
  let resumed = run_hospital ~resume_from:"_ckpt_never_written" () in
  Alcotest.(check bool) "same FDs" true
    (baseline.Pipeline.rhs_result.Rhs_discovery.fds
    = resumed.Pipeline.rhs_result.Rhs_discovery.fds);
  Alcotest.(check bool) "expert consulted as usual" true
    (List.length resumed.Pipeline.events > 0)

(* ------------------------------------------------------------------ *)
(* The streaming writer against the tree writer it replaced            *)
(* ------------------------------------------------------------------ *)

module Tree = Baselines.Checkpoint_tree
open Relational

let pick st l = List.nth l (Random.State.int st (List.length l))
let upto st n = List.init (Random.State.int st (n + 1)) Fun.id

(* strings the quoting rule must handle: empty, whitespace, parens,
   quotes, backslashes, every escaped control, and atoms that look like
   other atoms *)
let tricky_strings =
  [
    ""; " "; "a b"; "("; ")"; "(x)"; "\""; "\\"; "\n"; "\t"; "\r";
    "q\"uo\\te\n\t\r"; "plain"; "caf\xc3\xa9"; "\x01\x7f"; "-"; "nan";
    "(int 3)"; "semi;colon"; "trailing ";
  ]

let tricky_floats =
  [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.; 1.5; -2.25e-300;
    Float.max_float; Float.min_float; 1e100; 0.1 ]

let random_string st =
  String.init (Random.State.int st 6) (fun _ ->
      pick st
        [ 'a'; 'z'; ' '; '('; ')'; '"'; '\\'; '\n'; '\t'; '\r'; '0'; '-' ])

let random_value st =
  match Random.State.int st 8 with
  | 0 -> Value.Null
  | 1 -> Value.Bool (Random.State.bool st)
  | 2 ->
      Value.Int
        (pick st
           [ 0; 7; -1; 42; max_int; min_int; Random.State.bits st;
             -Random.State.bits st ])
  | 3 -> Value.Float (pick st tricky_floats)
  | 4 -> Value.String (pick st tricky_strings)
  | 5 ->
      Value.date
        (pick st [ 1; 1999; 2024; 9999 ])
        (1 + Random.State.int st 12)
        (1 + Random.State.int st 28)
  | _ -> Value.String (random_string st)

(* relation and attribute names: some need quoting; INDs and FDs only
   use the plain ones (their text form is not a quoting codec) *)
let plain_names = [ "R"; "Emp"; "dept"; "x_1" ]
let odd_names = [ "my rel"; "a(b)"; "q\"t"; "" ]

let random_relation st name =
  let attrs =
    List.filteri
      (fun i _ -> i = 0 || Random.State.bool st)
      [ "a"; "b"; "c d"; "e\\f"; "g" ]
  in
  let some l = List.filter (fun _ -> Random.State.int st 3 = 0) l in
  let domains = Domain.[ Bool; Int; Float; String; Date; Unknown ] in
  Relation.make
    ~domains:(List.map (fun a -> (a, pick st domains)) attrs)
    ~uniques:(List.filter (( <> ) []) [ some attrs; some attrs ])
    ~not_nulls:(some attrs) name attrs

(* 0 to 12 rows: empty tables come up often *)
let random_table st rel =
  Table.of_rows rel
    (Array.init (Random.State.int st 13) (fun _ ->
         Array.of_list
           (List.map (fun _ -> random_value st) rel.Relation.attrs)))

let random_side st =
  (pick st plain_names, pick st [ [ "a" ]; [ "b" ]; [ "a"; "b" ] ])

let random_ind st =
  let r, x = random_side st in
  let s = pick st plain_names in
  let y = List.map (fun a -> a ^ "2") x in
  Deps.Ind.make (r, x) (s, y)

let random_join st =
  let r, x = random_side st in
  Sqlx.Equijoin.make (r, x) (pick st plain_names, List.map (fun a -> a ^ "j") x)

let random_attr st =
  let r, x = random_side st in
  Attribute.make r x

let random_fd st =
  Deps.Fd.make (pick st plain_names) [ "a" ] (pick st [ [ "b" ]; [ "b"; "c" ] ])

let random_reason st =
  match Random.State.int st 3 with
  | 0 -> Supervise.Cancelled
  | 1 ->
      Supervise.Deadline
        { limit_s = pick st tricky_floats; elapsed_s = pick st tricky_floats }
  | _ ->
      Supervise.Heap
        {
          limit_words = Random.State.bits st;
          live_words = pick st [ 0; max_int ];
        }

let random_exhausted st =
  if Random.State.bool st then None else Some (random_reason st)

(* distinct relation names, then one table each *)
let random_tables st =
  List.map
    (fun name -> random_table st (random_relation st name))
    (List.filter (fun _ -> Random.State.bool st) (plain_names @ odd_names))

let random_ind_result st =
  (* conceptualized-NEI relations live in the database with their
     intersection extension; one of them may be missing from it *)
  let db = Database.create Schema.empty in
  let tables = random_tables st in
  List.iter (Database.replace_table db) tables;
  let missing =
    if Random.State.bool st then [ random_relation st "Gone" ] else []
  in
  let case () =
    match Random.State.int st 3 with
    | 0 -> Ind_discovery.Empty_intersection
    | 1 ->
        Ind_discovery.Included (List.map (fun _ -> random_ind st) (upto st 2))
    | _ ->
        Ind_discovery.Nei
          (pick st
             [
               Oracle.Conceptualize (pick st (plain_names @ odd_names));
               Oracle.Force_left_in_right; Oracle.Force_right_in_left;
               Oracle.Ignore_nei;
             ])
  in
  ( db,
    {
      Ind_discovery.inds = List.map (fun _ -> random_ind st) (upto st 3);
      new_relations = List.map Table.schema tables @ missing;
      steps =
        List.map
          (fun _ ->
            {
              Ind_discovery.join = random_join st;
              counts =
                {
                  Deps.Ind.n_left = Random.State.int st 1000;
                  n_right = Random.State.int st 1000;
                  n_join = Random.State.int st 1000;
                };
              case = case ();
            })
          (upto st 3);
      unverified = List.map (fun _ -> random_join st) (upto st 2);
      exhausted = random_exhausted st;
    } )

let random_lhs_result st =
  {
    Lhs_discovery.lhs = List.map (fun _ -> random_attr st) (upto st 3);
    hidden = List.map (fun _ -> random_attr st) (upto st 2);
  }

let random_rhs_result st =
  {
    Rhs_discovery.fds = List.map (fun _ -> random_fd st) (upto st 3);
    hidden = List.map (fun _ -> random_attr st) (upto st 2);
    steps =
      List.map
        (fun _ ->
          {
            Rhs_discovery.candidate = random_attr st;
            pruned_rhs =
              List.filter (fun _ -> Random.State.bool st) [ "b"; "c d"; "" ];
            outcome =
              pick st
                [
                  Rhs_discovery.Fd_elicited (random_fd st);
                  Rhs_discovery.Became_hidden; Rhs_discovery.Dropped;
                  Rhs_discovery.Already_hidden;
                ];
          })
        (upto st 3);
    unverified = List.map (fun _ -> random_attr st) (upto st 2);
    exhausted = random_exhausted st;
  }

let random_restruct_result st =
  let tables = random_tables st in
  let database =
    if Random.State.int st 4 = 0 then None
    else begin
      let db = Database.create Schema.empty in
      List.iter (Database.replace_table db) tables;
      Some db
    end
  in
  {
    Restruct.schema = Schema.of_relations (List.map Table.schema tables);
    inds = List.map (fun _ -> random_ind st) (upto st 3);
    ric = List.map (fun _ -> random_ind st) (upto st 2);
    renamings =
      List.map
        (fun _ -> (random_attr st, pick st (plain_names @ odd_names)))
        (upto st 3);
    database;
  }

let random_translate_result st =
  let r = random_restruct_result st in
  let t = Translate.run ~schema:r.Restruct.schema [] in
  {
    t with
    Translate.entity_of_relation =
      List.map
        (fun _ -> (pick st tricky_strings, pick st (plain_names @ odd_names)))
        (upto st 3);
  }

let file_bytes ~dir stage =
  In_channel.with_open_bin (Checkpoint.path ~dir stage) In_channel.input_all

let check_same_bytes ~dir stage expected =
  Alcotest.(check string)
    (Checkpoint.stage_name stage ^ " byte-identical to the tree writer")
    expected (file_bytes ~dir stage)

let test_streaming_matches_tree_writer () =
  let dir = fresh_dir "_ckpt_oracle" in
  let st = Random.State.make [| 12 |] in
  for _ = 1 to 60 do
    let db, ind = random_ind_result st in
    Checkpoint.write_ind ~dir db ind;
    check_same_bytes ~dir Checkpoint.Ind
      (Tree.document Checkpoint.Ind (Tree.ind_payload db ind));
    let lhs = random_lhs_result st in
    Checkpoint.write_lhs ~dir lhs;
    check_same_bytes ~dir Checkpoint.Lhs
      (Tree.document Checkpoint.Lhs (Tree.lhs_payload lhs));
    let rhs = random_rhs_result st in
    Checkpoint.write_rhs ~dir rhs;
    check_same_bytes ~dir Checkpoint.Rhs
      (Tree.document Checkpoint.Rhs (Tree.rhs_payload rhs));
    let r = random_restruct_result st in
    Checkpoint.write_restruct ~dir r;
    check_same_bytes ~dir Checkpoint.Restruct
      (Tree.document Checkpoint.Restruct (Tree.restruct_payload r));
    let t = random_translate_result st in
    Checkpoint.write_translate ~dir t;
    check_same_bytes ~dir Checkpoint.Translate
      (Tree.document Checkpoint.Translate (Tree.translate_payload t))
  done;
  rm_rf dir

let test_tables_span_chunks () =
  (* one table far larger than the writer's chunk, with quoted cells
     straddling chunk boundaries *)
  let dir = fresh_dir "_ckpt_big" in
  let rel = Relation.make "Big" [ "k"; "s"; "f" ] in
  let rows =
    Array.init 20_000 (fun i ->
        [|
          Value.Int (i * 7919);
          Value.String (if i mod 3 = 0 then "needs \"quoting\"" else "bare");
          Value.Float (float_of_int i /. 7.);
        |])
  in
  let db = Database.create Schema.empty in
  Database.replace_table db (Table.of_rows rel rows);
  let r =
    {
      Restruct.schema = Schema.of_relations [ rel ];
      inds = [];
      ric = [];
      renamings = [];
      database = Some db;
    }
  in
  Checkpoint.write_restruct ~dir r;
  let bytes = file_bytes ~dir Checkpoint.Restruct in
  Alcotest.(check bool) "spans many chunks" true
    (String.length bytes > 500_000);
  check_same_bytes ~dir Checkpoint.Restruct
    (Tree.document Checkpoint.Restruct (Tree.restruct_payload r));
  rm_rf dir

(* strict cell equality: a float must come back with the same bits
   (-0. is not 0.), NaN as NaN *)
let value_identical a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      (Float.is_nan x && Float.is_nan y)
      || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let check_table_identical msg t u =
  Alcotest.(check bool) (msg ^ ": relation") true
    (Relation.equal (Table.schema t) (Table.schema u)
    && (Table.schema t).Relation.domains = (Table.schema u).Relation.domains);
  let rt = Table.rows t and ru = Table.rows u in
  Alcotest.(check int) (msg ^ ": rows") (Array.length rt) (Array.length ru);
  Array.iteri
    (fun i tup ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: row %d" msg i)
        true
        (Array.length tup = Array.length ru.(i)
        && Array.for_all2 value_identical tup ru.(i)))
    rt

let test_ind_round_trip () =
  let dir = fresh_dir "_ckpt_ind_rt" in
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 40 do
    let db, r = random_ind_result st in
    Checkpoint.write_ind ~dir db r;
    let into = Database.create Schema.empty in
    match Checkpoint.load_ind ~dir into with
    | None -> Alcotest.fail "ind checkpoint did not load"
    | Some l ->
        Alcotest.(check bool) "inds" true
          (l.Ind_discovery.inds = r.Ind_discovery.inds);
        Alcotest.(check bool) "new relations" true
          (List.equal Relation.equal l.Ind_discovery.new_relations
             r.Ind_discovery.new_relations);
        Alcotest.(check bool) "steps" true
          (l.Ind_discovery.steps = r.Ind_discovery.steps);
        Alcotest.(check bool) "unverified" true
          (l.Ind_discovery.unverified = r.Ind_discovery.unverified);
        Alcotest.(check bool) "exhausted" true
          (compare l.Ind_discovery.exhausted r.Ind_discovery.exhausted = 0);
        (* each conceptualized relation is back in the live database
           with its extension (empty when the writer had none) *)
        List.iter
          (fun rel ->
            let name = rel.Relation.name in
            let expected =
              match Database.table_opt db name with
              | Some t -> t
              | None -> Table.create rel
            in
            check_table_identical name expected (Database.table into name))
          r.Ind_discovery.new_relations
  done;
  rm_rf dir

let test_restruct_round_trip () =
  let dir = fresh_dir "_ckpt_restruct_rt" in
  let st = Random.State.make [| 9 |] in
  for _ = 1 to 40 do
    let r = random_restruct_result st in
    Checkpoint.write_restruct ~dir r;
    match Checkpoint.load_restruct ~dir with
    | None -> Alcotest.fail "restruct checkpoint did not load"
    | Some l ->
        Alcotest.(check bool) "schema" true
          (List.equal Relation.equal
             (Schema.relations l.Restruct.schema)
             (Schema.relations r.Restruct.schema));
        Alcotest.(check bool) "inds" true (l.Restruct.inds = r.Restruct.inds);
        Alcotest.(check bool) "ric" true (l.Restruct.ric = r.Restruct.ric);
        Alcotest.(check bool) "renamings" true
          (l.Restruct.renamings = r.Restruct.renamings);
        (match (r.Restruct.database, l.Restruct.database) with
        | None, None -> ()
        | Some d, Some e ->
            let names db =
              List.map (fun rel -> rel.Relation.name)
                (Schema.relations (Database.schema db))
            in
            Alcotest.(check (list string)) "tables" (names d) (names e);
            List.iter
              (fun n ->
                check_table_identical n (Database.table d n)
                  (Database.table e n))
              (names d)
        | _ -> Alcotest.fail "database presence differs")
  done;
  rm_rf dir

(* one byte of the payload changed, layout intact: only the checksum can
   reject it *)
let test_layout_and_checksum_guard () =
  let dir = fresh_dir "_ckpt_guard" in
  let st = Random.State.make [| 3 |] in
  let r = random_restruct_result st in
  Checkpoint.write_restruct ~dir r;
  let p = Checkpoint.path ~dir Checkpoint.Restruct in
  let original = file_bytes ~dir Checkpoint.Restruct in
  let rewrite text =
    Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc text)
  in
  Alcotest.(check bool) "intact file loads" true
    (Checkpoint.load_restruct ~dir <> None);
  (* "(restruct (schema" -> "(restruct (schemA": parses, wrong sum *)
  let i = String.index_from original (String.index original ')' + 1) 's' in
  let tampered = Bytes.of_string original in
  Bytes.set tampered i 'S';
  rewrite (Bytes.to_string tampered);
  Alcotest.(check bool) "tampered payload rejected" true
    (Checkpoint.load_restruct ~dir = None);
  rewrite (String.sub original 0 (String.length original - 1));
  Alcotest.(check bool) "missing final newline rejected" true
    (Checkpoint.load_restruct ~dir = None);
  rewrite (String.sub original 0 (String.length original / 2));
  Alcotest.(check bool) "truncated file rejected" true
    (Checkpoint.load_restruct ~dir = None);
  rewrite original;
  Alcotest.(check bool) "restored file loads again" true
    (Checkpoint.load_restruct ~dir <> None);
  rm_rf dir

(* The payload bytes are hashed as read, not re-serialized: a file that
   parses to the same tree but is laid out differently no longer
   verifies, even though its stored checksum is that of the canonical
   payload. *)
let test_reformatted_file_is_corrupt () =
  let dir = fresh_dir "_ckpt_reformat" in
  let lhs =
    {
      Lhs_discovery.lhs = [ Attribute.make "R" [ "a" ] ];
      hidden = [ Attribute.make "S" [ "b"; "c" ] ];
    }
  in
  Checkpoint.write_lhs ~dir lhs;
  let original = file_bytes ~dir Checkpoint.Lhs in
  let canonical = "(lhs (lhs (attr R (a))) (hidden (attr S (b c))))" in
  let payload_at = String.length original - 2 - String.length canonical in
  Alcotest.(check string) "canonical payload" (canonical ^ ")\n")
    (String.sub original payload_at (String.length original - payload_at));
  (* a newline and indentation inside the payload; "S" quoted although
     it need not be *)
  let reformatted =
    String.sub original 0 payload_at
    ^ "(lhs\n  (lhs (attr R (a)))\n  (hidden (attr \"S\" (b c))))"
    ^ ")\n"
  in
  Alcotest.(check bool) "parse-equal" true
    (Sexp.of_string reformatted = Sexp.of_string original);
  Out_channel.with_open_bin (Checkpoint.path ~dir Checkpoint.Lhs) (fun oc ->
      Out_channel.output_string oc reformatted);
  Alcotest.(check bool) "re-formatted file reads as corrupt" true
    (Checkpoint.load_lhs ~dir = None);
  rm_rf dir

let suite =
  [
    Alcotest.test_case "one artifact per stage" `Quick test_checkpoint_files;
    Alcotest.test_case "resume reproduces the run" `Quick test_resume_roundtrip;
    Alcotest.test_case "corrupt checkpoint recomputed" `Quick
      test_corrupt_checkpoint_recomputed;
    Alcotest.test_case "missing dir falls back to fresh run" `Quick
      test_missing_dir_is_fresh_run;
    Alcotest.test_case "streaming writer = tree writer (fuzzed)" `Quick
      test_streaming_matches_tree_writer;
    Alcotest.test_case "tables spanning many chunks" `Quick
      test_tables_span_chunks;
    Alcotest.test_case "ind load (write x) = x" `Quick test_ind_round_trip;
    Alcotest.test_case "restruct load (write x) = x" `Quick
      test_restruct_round_trip;
    Alcotest.test_case "layout and checksum guard" `Quick
      test_layout_and_checksum_guard;
    Alcotest.test_case "re-formatted file reads as corrupt" `Quick
      test_reformatted_file_is_corrupt;
  ]
