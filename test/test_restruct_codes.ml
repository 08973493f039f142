(* Restruct's data migration over column codes.

   - fuzzed equivalence: every migrated table (schema, and rows in
     order) equals the row-at-a-time oracle's
     ([Baselines.Restruct_rows]) on NULL-heavy Int/String/Float/Date/Bool
     data with single- and multi-attribute LHS, overlapping and
     cascaded FDs and hidden objects, for inserted, CSV-loaded and
     checkpoint-reloaded inputs, across segment boundaries;
   - each migrated store is exactly a fresh encode of its rows;
   - isolation: mutating and refreshing the input after Restruct never
     reaches the migrated database, its counts or its checkpoint bytes;
   - the contract on the path users take: [Job.run] over CSV files with
     migration and checkpoints, at 1 and 2 domains, leaves every input
     and migrated table unmaterialized, with checkpoint files and
     artifacts byte-identical to the row path's. *)

open Relational
open Helpers
open Dbre
module Rows = Baselines.Restruct_rows

let rng = ref 0

(* the LCG's low bits cycle with short periods: draw from the high ones *)
let rand m =
  rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
  (!rng lsr 10) mod m

let pick l = List.nth l (rand (List.length l))

(* -- inputs --------------------------------------------------------- *)

let w_rel =
  Relation.make "W" ~uniques:[ [ "id" ] ]
    ~domains:
      [
        ("id", Domain.Int); ("a", Domain.Int); ("b", Domain.String);
        ("c", Domain.Float); ("d", Domain.Date); ("e", Domain.Bool);
        ("f", Domain.Int);
      ]
    [ "id"; "a"; "b"; "c"; "d"; "e"; "f" ]

let v_rel =
  Relation.make "V"
    ~domains:[ ("v", Domain.Int); ("w", Domain.String) ]
    [ "v"; "w" ]

(* NULL-heavy: roughly two cells in five are NULL outside the key *)
let maybe_null v = if rand 5 < 2 then Value.Null else v

let w_row i =
  let a = 1 + rand 5 in
  [
    vi i;
    maybe_null (vi a);
    maybe_null (vs (Printf.sprintf "b%d" (if rand 4 = 0 then rand 3 else a)));
    maybe_null (Value.Float (float_of_int (rand 4) *. 0.75));
    maybe_null (Value.date 2020 (1 + rand 3) (1 + rand 2));
    maybe_null (Value.Bool (rand 2 = 0));
    maybe_null (vi (rand 3));
  ]

let v_row _ = [ maybe_null (vi (1 + rand 6)); maybe_null (vs (pick [ "x"; "y"; "z" ])) ]

let inserted ~n =
  database
    [
      (w_rel, List.init n w_row);
      (v_rel, List.init (rand 12) v_row);
    ]

(* the same extension through the CSV loader: deferred tables whose
   stores come straight from the scanner *)
let csv_loaded src =
  let db = Database.create (Database.schema src) in
  List.iter
    (fun rel ->
      let text = Csv.dump_table (Database.table src rel.Relation.name) in
      match Csv.load rel text with
      | Ok (t, _) -> Database.replace_table db t
      | Error e -> Alcotest.fail (Error.to_string e))
    (Schema.relations (Database.schema src));
  db

(* 1-3 FDs and 0-2 hidden objects over whatever relations [db] has:
   FDs on one relation overlap and cascade (a later FD's RHS may have
   been moved by an earlier split) *)
let knowledge db =
  let rels = Schema.relations (Database.schema db) in
  let subset attrs k =
    let rec go acc k pool =
      if k = 0 || pool = [] then List.rev acc
      else
        let a = pick pool in
        go (a :: acc) (k - 1) (List.filter (fun b -> b <> a) pool)
    in
    go [] k attrs
  in
  let fds =
    List.filter_map
      (fun _ ->
        let r = pick rels in
        let attrs = r.Relation.attrs in
        if List.length attrs < 2 then None
        else
          let lhs = subset attrs (1 + rand 2) in
          let rest = List.filter (fun a -> not (List.mem a lhs)) attrs in
          if rest = [] then None
          else
            Some (Deps.Fd.make r.Relation.name lhs (subset rest (1 + rand 2))))
      (List.init (1 + rand 3) Fun.id)
  in
  let hidden =
    List.map
      (fun _ ->
        let r = pick rels in
        Attribute.make r.Relation.name (subset r.Relation.attrs (1 + rand 2)))
      (List.init (rand 3) Fun.id)
  in
  (fds, hidden)

(* the extension's rows, read from the store when the table holds no
   tuple array, so reading never materializes *)
let rows_of t =
  if Table.materialized t then Table.to_lists t
  else begin
    let s = Column_store.of_table t in
    let attrs = (Table.schema t).Relation.attrs in
    let dicts =
      List.map (fun a -> Column_store.(column_dict (column s a))) attrs
    in
    let acc = ref [] in
    Column_store.iter_codes s attrs (fun codes ->
        acc := List.mapi (fun j d -> d.(codes.(j))) dicts :: !acc);
    List.rev !acc
  end

(* a row-backed copy for the oracle, which materializes its input *)
let row_copy db =
  let copy = Database.create (Database.schema db) in
  List.iter
    (fun r ->
      let t = Database.table db r.Relation.name in
      Database.replace_table copy
        (Table.of_rows (Table.schema t)
           (Array.of_list (List.map Array.of_list (rows_of t)))))
    (Schema.relations (Database.schema db));
  copy

let restruct_with ~row_path db (fds, hidden) =
  let run = if row_path then Rows.run else Restruct.run in
  run Oracle.automatic ~db ~schema:(Database.schema db) ~fds ~hidden ~inds:[]
    ()

(* -- comparison ----------------------------------------------------- *)

let check_same_migration msg (expected : Restruct.result)
    (actual : Restruct.result) =
  Alcotest.(check (list relation))
    (msg ^ ": schema")
    (Schema.relations expected.Restruct.schema)
    (Schema.relations actual.Restruct.schema);
  Alcotest.(check (list ind_t)) (msg ^ ": inds") expected.Restruct.inds
    actual.Restruct.inds;
  Alcotest.(check (list ind_t)) (msg ^ ": ric") expected.Restruct.ric
    actual.Restruct.ric;
  match (expected.Restruct.database, actual.Restruct.database) with
  | Some e, Some a ->
      let rels db = Schema.relations (Database.schema db) in
      Alcotest.(check (list relation)) (msg ^ ": database schema") (rels e)
        (rels a);
      List.iter
        (fun r ->
          let name = r.Relation.name in
          let ta = Database.table a name in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s unmaterialized" msg name)
            false (Table.materialized ta);
          Alcotest.(check relation)
            (Printf.sprintf "%s: %s table schema" msg name)
            (Table.schema (Database.table e name))
            (Table.schema ta);
          Alcotest.(check (list (list value)))
            (Printf.sprintf "%s: %s rows" msg name)
            (rows_of (Database.table e name))
            (rows_of ta))
        (rels e)
  | None, None -> ()
  | _ -> Alcotest.fail (msg ^ ": database presence differs")

(* a derived store is exactly the store an encode of its rows builds *)
let check_fresh_encoding msg t =
  let derived = Column_store.of_table t in
  let fresh =
    Column_store.build
      (Table.of_rows (Table.schema t)
         (Array.of_list (List.map Array.of_list (rows_of t))))
  in
  List.iter
    (fun a ->
      let c1 = Column_store.column derived a and c2 = Column_store.column fresh a in
      Alcotest.(check (array value))
        (Printf.sprintf "%s: %s.%s dictionary" msg
           (Table.schema t).Relation.name a)
        (Column_store.column_dict c2) (Column_store.column_dict c1);
      Alcotest.(check (array int))
        (Printf.sprintf "%s: %s.%s codes" msg (Table.schema t).Relation.name a)
        (Column_store.column_codes c2) (Column_store.column_codes c1))
    (Table.schema t).Relation.attrs

let tmp_dir tag =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbre-restruct-codes-%s-%d" tag (Unix.getpid ()))
  in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  d

let rm_dir d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

(* -- fuzzed equivalence --------------------------------------------- *)

let one_case ~seed ~segment_rows =
  rng := seed;
  let src = inserted ~n:(rand 70) in
  let k = knowledge src in
  let msg kind = Printf.sprintf "seed %d, %s, segments of %d" seed kind segment_rows in
  let compare kind db k =
    let expected = restruct_with ~row_path:true (row_copy db) k in
    let actual = restruct_with ~row_path:false db k in
    check_same_migration (msg kind) expected actual;
    Option.iter
      (fun d ->
        List.iter
          (fun r -> check_fresh_encoding (msg kind) (Database.table d r.Relation.name))
          (Schema.relations (Database.schema d)))
      actual.Restruct.database;
    actual
  in
  Ooc.with_config ~segment_rows (fun () ->
      ignore (compare "inserted" src k);
      let loaded = csv_loaded src in
      let actual = compare "csv-loaded" loaded k in
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (msg "csv-loaded" ^ ": input " ^ r.Relation.name ^ " unmaterialized")
            false
            (Table.materialized (Database.table loaded r.Relation.name)))
        (Schema.relations (Database.schema loaded));
      (* the checkpoint round trip hands back [Table.of_rows] tables *)
      let dir = tmp_dir "fuzz" in
      Fun.protect ~finally:(fun () -> rm_dir dir) @@ fun () ->
      Checkpoint.write_restruct ~dir actual;
      match Checkpoint.load_restruct ~dir with
      | Some { Restruct.database = Some reloaded; _ } ->
          ignore (compare "checkpoint-reloaded" reloaded (knowledge reloaded))
      | _ -> Alcotest.fail (msg "checkpoint" ^ ": restruct checkpoint did not load"))

let test_fuzzed_equivalence () =
  for seed = 1 to 60 do
    one_case ~seed ~segment_rows:(if seed mod 2 = 0 then 8 else 65536)
  done

(* -- code-tuple distinctness at scale ------------------------------- *)

(* wide dictionaries push the fold off its flat table: the LHS column
   determines [y] on most rows (no hashing) and not on the rest (the
   hashed fallback); [z] is NULL-heavy *)
let test_distinct_rows_wide () =
  rng := 99;
  let rel = Relation.make "T" [ "x"; "y"; "z" ] in
  let rows =
    List.init 3000 (fun i ->
        let x = i mod 700 in
        [
          (if rand 10 = 0 then vnull else vi x);
          vi (if rand 8 = 0 then 1000 + rand 500 else x * 7);
          maybe_null (vs (string_of_int (rand 4)));
        ])
  in
  let t = table "T" rel.Relation.attrs rows in
  let s = Column_store.build t in
  let naive ~non_null attrs =
    let idx = Table.positions t attrs and nn = Table.positions t non_null in
    let seen = Hashtbl.create 64 in
    let out = ref [] in
    Array.iteri
      (fun r tup ->
        if not (Tuple.has_null_at nn tup) then begin
          let key = Tuple.project idx tup in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            out := r :: !out
          end
        end)
      (Table.rows t);
    Array.of_list (List.rev !out)
  in
  List.iter
    (fun (non_null, attrs) ->
      Alcotest.(check (array int))
        (String.concat "," attrs ^ " / non-null " ^ String.concat "," non_null)
        (naive ~non_null attrs)
        (Column_store.distinct_rows s ~non_null attrs))
    [
      ([ "x" ], [ "x"; "y" ]); ([ "x" ], [ "x"; "y"; "z" ]);
      ([], [ "y"; "x" ]); ([ "z" ], [ "x"; "y" ]); ([ "x"; "z" ], [ "z" ]);
    ];
  Alcotest.(check (list (list value)))
    "project_distinct order"
    (Table.project_distinct t [ "y"; "x" ])
    (List.map
       (fun r -> [ (Table.rows t).(r).(1); (Table.rows t).(r).(0) ])
       (Array.to_list (Column_store.project_distinct_rows s [ "y"; "x" ])))

(* -- isolation ------------------------------------------------------ *)

let snapshot (r : Restruct.result) =
  let db = Option.get r.Restruct.database in
  List.map
    (fun rel ->
      let t = Database.table db rel.Relation.name in
      let s = Column_store.of_table t in
      ( rel.Relation.name,
        Table.cardinality t,
        List.map (fun a -> Column_store.count_distinct s [ a ]) rel.Relation.attrs,
        rows_of t ))
    (Schema.relations (Database.schema db))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_isolation () =
  rng := 7;
  let spill = tmp_dir "spill" in
  Fun.protect ~finally:(fun () -> rm_dir spill) @@ fun () ->
  Ooc.with_config ~segment_rows:8 ~spill_dir:spill ~resident_budget_words:64
    (fun () ->
      let db = csv_loaded (inserted ~n:120) in
      let k =
        ( [ Deps.Fd.make "W" [ "a" ] [ "b"; "c" ]; Deps.Fd.make "W" [ "f" ] [ "c"; "e" ] ],
          [ Attribute.make "W" [ "d" ]; Attribute.make "V" [ "w" ] ] )
      in
      let r = restruct_with ~row_path:false db k in
      let dir = tmp_dir "iso" in
      Fun.protect ~finally:(fun () -> rm_dir dir) @@ fun () ->
      Checkpoint.write_restruct ~dir r;
      let bytes = read_file (Checkpoint.path ~dir Checkpoint.Restruct) in
      let before = snapshot r in
      (* mutate the input deep inside its sealed segments and in the
         tail, then refresh every input store *)
      let w = Database.table db "W" in
      Table.delete_rows w [ 0; 3; 9; 17; 64; 100; 119 ];
      Table.insert_many w (List.init 20 (fun i -> w_row (1000 + i)));
      Table.delete_rows (Database.table db "V") [ 0 ];
      ignore (Refresh.database db);
      ignore (Column_store.count_distinct (Column_store.of_table w) [ "a"; "b" ]);
      Alcotest.(check bool) "migrated rows, counts unchanged" true
        (before = snapshot r);
      Checkpoint.write_restruct ~dir r;
      Alcotest.(check string) "checkpoint bytes unchanged" bytes
        (read_file (Checkpoint.path ~dir Checkpoint.Restruct));
      (* and the other way round: mutating a migrated table leaves the
         input alone *)
      let input_rows = rows_of w in
      let migrated_w = Database.table (Option.get r.Restruct.database) "W" in
      Table.delete_rows migrated_w [ 1; 2 ];
      ignore (Column_store.of_table migrated_w);
      Alcotest.(check (list (list value))) "input untouched" input_rows
        (rows_of w))

(* -- the contract on CSV files -------------------------------------- *)

module G = Workload.Gen_schema

let write_inputs dir (g : G.t) =
  Checkpoint.ensure_dir dir;
  List.map
    (fun r ->
      let path = Filename.concat dir (r.Relation.name ^ ".csv") in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (Csv.dump_table (Database.table g.G.db r.Relation.name)));
      (r.Relation.name, Source.Csv_file path))
    (Schema.relations (Database.schema g.G.db))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let stages =
  [ Checkpoint.Ind; Checkpoint.Lhs; Checkpoint.Rhs; Checkpoint.Restruct; Checkpoint.Translate ]

let contract engine_name engine () =
  let root = tmp_dir ("contract-" ^ engine_name) in
  rm_rf root;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let g = G.generate (G.scale 0.5 { G.default_spec with G.seed = 11L }) in
  let sources = write_inputs (Filename.concat root "csv") g in
  let ddl =
    String.concat ""
      (List.map
         (fun r -> Sqlx.Ddl.create_table_sql r ^ ";\n")
         (Schema.relations (Database.schema g.G.db)))
  in
  let ckpt = Filename.concat root "ckpt" in
  let spec =
    Job_spec.make ~sources ~engine ~migrate_data:true ~checkpoint_dir:ckpt ~ddl
      (Job_spec.Equijoins g.G.equijoins)
  in
  let db, quarantine =
    match Job.database spec with
    | Ok v -> v
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  let r =
    match Job.verify ~db ~quarantine spec with
    | Ok r -> r
    | Error p -> Alcotest.fail (Error.to_string p.Pipeline.p_error)
  in
  let migrated = Option.get r.Pipeline.restruct_result.Restruct.database in
  let unmaterialized what d =
    List.iter
      (fun rel ->
        Alcotest.(check bool)
          (Printf.sprintf "%s %s unmaterialized" what rel.Relation.name)
          false
          (Table.materialized (Database.table d rel.Relation.name)))
      (Schema.relations (Database.schema d))
  in
  unmaterialized "input" db;
  unmaterialized "migrated" migrated;
  (* the row path on the same verdicts, written beside *)
  let rows_r =
    let copy = row_copy db in
    Rows.run (Job_spec.oracle spec) ~db:copy ~schema:(Database.schema copy)
      ~fds:r.Pipeline.rhs_result.Rhs_discovery.fds
      ~hidden:r.Pipeline.rhs_result.Rhs_discovery.hidden
      ~inds:r.Pipeline.ind_result.Ind_discovery.inds ()
  in
  let rows_t =
    Translate.run ?db:rows_r.Restruct.database ~schema:rows_r.Restruct.schema
      rows_r.Restruct.ric
  in
  let row_dir = Filename.concat root "rows" in
  Checkpoint.write_ind ~dir:row_dir db r.Pipeline.ind_result;
  Checkpoint.write_lhs ~dir:row_dir r.Pipeline.lhs_result;
  Checkpoint.write_rhs ~dir:row_dir r.Pipeline.rhs_result;
  Checkpoint.write_restruct ~dir:row_dir rows_r;
  Checkpoint.write_translate ~dir:row_dir rows_t;
  List.iter
    (fun stage ->
      Alcotest.(check string)
        (Checkpoint.stage_name stage ^ " checkpoint = row path's")
        (read_file (Checkpoint.path ~dir:row_dir stage))
        (read_file (Checkpoint.path ~dir:ckpt stage)))
    stages;
  Alcotest.(check (list (pair string string))) "artifacts = row path's"
    (Report.artifacts
       { r with Pipeline.restruct_result = rows_r; translate_result = rows_t })
    (Report.artifacts r);
  (* writing the checkpoints again still materializes nothing *)
  Checkpoint.write_restruct ~dir:ckpt r.Pipeline.restruct_result;
  Checkpoint.write_ind ~dir:ckpt db r.Pipeline.ind_result;
  unmaterialized "input" db;
  unmaterialized "migrated" migrated

let suite =
  [
    Alcotest.test_case "fuzzed equivalence vs row oracle" `Quick
      test_fuzzed_equivalence;
    Alcotest.test_case "code-tuple distinctness, wide" `Quick
      test_distinct_rows_wide;
    Alcotest.test_case "isolation from the input" `Quick test_isolation;
    Alcotest.test_case "csv contract, 1 domain" `Quick
      (contract "seq" Engine.default);
    Alcotest.test_case "csv contract, 2 domains" `Quick
      (contract "par2" (Engine.parallel ~domains:2 ()));
  ]
