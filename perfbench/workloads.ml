(* The benchmark's workloads: their generator specs, the on-disk layout
   the generator writes and the runner reads, and the serve-refresh
   mutation stream. Shared by gen.exe (which writes the inputs),
   bench.exe (which never generates, only reads them) and gen_test.exe. *)

open Relational
module G = Workload.Gen_schema

type t = Analyze_narrow | Analyze_wide_ooc | Serve_refresh

let all = [ Analyze_narrow; Analyze_wide_ooc; Serve_refresh ]

let name = function
  | Analyze_narrow -> "analyze-narrow"
  | Analyze_wide_ooc -> "analyze-wide-ooc"
  | Serve_refresh -> "serve-refresh"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Sizes, chosen so a 30 s run holds about twenty jobs or a few hundred
   cycles on a 2-core host (see NOTES.md). analyze-narrow is the default
   shape at 100k rows; analyze-wide-ooc is 3 denorm relations x 12 refs x
   1 payload at 85k rows, run under [resident_budget_words]; serve-refresh
   is the default shape at 100k rows. *)
let spec w ~seed =
  let base = { G.default_spec with G.seed = Int64.of_int seed } in
  match w with
  | Analyze_narrow -> G.scale 12.5 base
  | Analyze_wide_ooc ->
      {
        base with
        G.n_denorm = 3;
        refs_per_denorm = 12;
        payload_per_ref = 1;
        rows_per_entity = 10_000;
        rows_per_denorm = 15_000;
      }
  | Serve_refresh -> G.scale 12.5 base

(* analyze-wide-ooc's resident budget: a tenth of the extension's cells
   (rows x columns) at a nominal 16-bit packed code. It is a function of
   the generated input alone, written to the manifest, so every commit
   compared runs under the same budget whatever its store packs. *)
let resident_budget_words ~cells = cells * 16 / 64 / 10

(* serve-refresh: each cycle deletes [delta_rows] rows of one denorm
   relation and appends as many copies of existing rows under fresh
   surrogate keys (0.25% of the relation, so sizes stay flat and every
   planted dependency keeps holding). The stream holds about twice the
   cycles a 30 s run consumed at the first baseline; a run that exhausts
   it stops measuring early and says so. *)
let stream_cycles = 600
let delta_rows n = max 1 (n / 400)

(* On-disk layout of one generated workload directory. *)
let ddl_path dir = Filename.concat dir "schema.sql"
let csv_dir dir = Filename.concat dir "csv"
let programs_dir dir = Filename.concat dir "programs"
let truth_path dir = Filename.concat dir "truth.json"
let manifest_path dir = Filename.concat dir "manifest.json"
let mutations_path dir = Filename.concat dir "mutations.json"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Cells of a mutation row travel as JSON scalars, the way the daemon's
   wire protocol carries them. *)
let json_of_value = function
  | Value.Null -> Json.Null
  | Value.Int i -> Json.Int i
  | Value.String s -> Json.String s
  | v -> Json.String (Value.to_string v)

let value_of_json = function
  | Json.Int i -> Value.Int i
  | Json.String s -> Value.String s
  | Json.Float f -> Value.Float f
  | Json.Bool b -> Value.Bool b
  | Json.Null | Json.List _ | Json.Obj _ -> Value.Null

type mutation = {
  relation : string;
  delete : int list;  (** row indices before the deletes apply *)
  insert : Value.t list list;  (** appended after the deletes *)
}

let mutation_to_json m =
  Json.Obj
    [
      ("relation", Json.String m.relation);
      ("delete", Json.List (List.map (fun i -> Json.Int i) m.delete));
      ( "insert",
        Json.List
          (List.map (fun r -> Json.List (List.map json_of_value r)) m.insert)
      );
    ]

let mutation_of_json j =
  let ints = List.filter_map Json.to_int_opt in
  let row r = List.map value_of_json (Option.value ~default:[] (Json.to_list_opt r)) in
  {
    relation = Option.value ~default:"" (Json.mem_string "relation" j);
    delete = ints (Option.value ~default:[] (Json.mem_list "delete" j));
    insert = List.map row (Option.value ~default:[] (Json.mem_list "insert" j));
  }

(* Apply one cycle to a table exactly as the daemon's [mutate] does:
   deletes (pre-mutation numbering) first, then the appends. *)
let apply_mutation db m =
  let t = Database.table db m.relation in
  Table.delete_rows t m.delete;
  Table.insert_many t m.insert

(* The stream, derived from the seed and simulated on plain row arrays
   with [Table]'s semantics (stable removal, appends at the end): cycle
   [c] targets denorm relation [c mod n_denorm]; copies take a fresh
   surrogate key (column 0) above every key issued so far. *)
let mutation_stream (spec : G.spec) db ~cycles =
  let rng = Workload.Rng.create (Int64.add spec.G.seed 7919L) in
  let relation j = Printf.sprintf "D%d" j in
  let rows =
    Array.init spec.G.n_denorm (fun j ->
        Array.map Tuple.to_list (Table.rows (Database.table db (relation j))))
  in
  let next_key = Array.make spec.G.n_denorm (spec.G.rows_per_denorm + 1) in
  List.init cycles (fun c ->
      let j = c mod spec.G.n_denorm in
      let cur = rows.(j) in
      let n = Array.length cur in
      let delete =
        List.sort_uniq Int.compare
          (List.init (delta_rows n) (fun _ -> Workload.Rng.int rng n))
      in
      let insert =
        List.map
          (fun _ ->
            let key = next_key.(j) in
            next_key.(j) <- key + 1;
            Value.Int key :: List.tl cur.(Workload.Rng.int rng n))
          delete
      in
      let dropped = Array.make n false in
      List.iter (fun i -> dropped.(i) <- true) delete;
      let kept = List.filteri (fun i _ -> not dropped.(i)) (Array.to_list cur) in
      rows.(j) <- Array.of_list (kept @ insert);
      { relation = relation j; delete; insert })

let read_mutations dir =
  match Json.mem_list "cycles" (Json.of_string (read_file (mutations_path dir))) with
  | Some l -> Array.of_list (List.map mutation_of_json l)
  | None -> [||]

(* Planted ground truth, as the dependencies' own textual forms. *)
let truth_to_json (t : G.ground_truth) =
  Json.Obj
    [
      ( "planted_inds",
        Json.List
          (List.map (fun i -> Json.String (Deps.Ind.to_string i)) t.G.planted_inds)
      );
      ( "planted_fds",
        Json.List
          (List.map (fun f -> Json.String (Deps.Fd.to_string f)) t.G.planted_fds)
      );
    ]

let read_truth dir =
  let j = Json.of_string (read_file (truth_path dir)) in
  let strings k =
    List.filter_map Json.to_string_opt
      (Option.value ~default:[] (Json.mem_list k j))
  in
  {
    G.planted_inds = List.map Deps.Ind.parse (strings "planted_inds");
    planted_fds = List.map Deps.Fd.parse (strings "planted_fds");
  }

(* Write one workload's inputs for [spec] to [out] (replaced). *)
let write_inputs w (spec : G.spec) ~seed ~cycles ~out =
  let g = G.generate spec in
  rm_rf out;
  Dbre.Checkpoint.ensure_dir (csv_dir out);
  Dbre.Checkpoint.ensure_dir (programs_dir out);
  let relations = Schema.relations (Database.schema g.G.db) in
  write_file (ddl_path out)
    (String.concat ""
       (List.map (fun r -> Sqlx.Ddl.create_table_sql r ^ ";\n") relations));
  let sizes =
    List.map
      (fun (r : Relation.t) ->
        let t = Database.table g.G.db r.Relation.name in
        let text = Csv.dump_table t in
        write_file (Filename.concat (csv_dir out) (r.Relation.name ^ ".csv")) text;
        (r.Relation.name, Table.cardinality t, String.length text, Relation.arity r))
      relations
  in
  List.iteri
    (fun i p ->
      write_file
        (Filename.concat (programs_dir out) (Printf.sprintf "p%03d.cob" i))
        p)
    g.G.programs;
  write_file (truth_path out) (Json.to_string (truth_to_json g.G.truth));
  let cycles =
    match w with
    | Serve_refresh ->
        let stream = mutation_stream spec g.G.db ~cycles in
        write_file (mutations_path out)
          (Json.to_string
             (Json.Obj [ ("cycles", Json.List (List.map mutation_to_json stream)) ]));
        List.length stream
    | Analyze_narrow | Analyze_wide_ooc -> 0
  in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 sizes in
  let budget =
    match w with
    | Analyze_wide_ooc ->
        [
          ( "resident_budget_words",
            Json.Int (resident_budget_words ~cells:(sum (fun (_, n, _, a) -> n * a))) );
        ]
    | Analyze_narrow | Serve_refresh -> []
  in
  write_file (manifest_path out)
    (Json.to_string
       (Json.Obj
          ([
            ("workload", Json.String (name w));
            ("seed", Json.Int seed);
            ("rows", Json.Int (sum (fun (_, n, _, _) -> n)));
            ("csv_bytes", Json.Int (sum (fun (_, _, b, _) -> b)));
            ("mutation_cycles", Json.Int cycles);
          ]
          @ budget
          @ [
            ( "relations",
              Json.List
                (List.map
                   (fun (name, rows, bytes, _) ->
                     Json.Obj
                       [
                         ("name", Json.String name);
                         ("rows", Json.Int rows);
                         ("csv_bytes", Json.Int bytes);
                       ])
                   sizes) );
          ])))
