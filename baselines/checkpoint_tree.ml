(* The checkpoint writer as it stood before streaming: every artifact
   is built into a [Sexp.t] tree (each cell a [List [Atom "int"; Atom
   "42"]]), printed once for the checksum and once more inside the
   [(checkpoint ...)] document, with its own copy of the printer.
   Kept as the byte-identity oracle for [Dbre.Checkpoint]'s streaming
   writer (test_checkpoint) and as the baseline bench B10 times it
   against. *)

open Relational
open Deps
open Dbre

let must_quote s =
  s = ""
  || String.exists
       (fun c ->
         c = ' ' || c = '(' || c = ')' || c = '"' || c = '\n' || c = '\t'
         || c = '\r' || c = '\\')
       s

let quote buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string (t : Sexp.t) =
  let buf = Buffer.create 256 in
  let rec go = function
    | Sexp.Atom s -> if must_quote s then quote buf s else Buffer.add_string buf s
    | Sexp.List l ->
        Buffer.add_char buf '(';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ' ';
            go x)
          l;
        Buffer.add_char buf ')'
  in
  go t;
  Buffer.contents buf

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let tagged tag items = Sexp.List (Sexp.Atom tag :: items)

let sexp_of_value = function
  | Value.Null -> tagged "null" []
  | Value.Bool b -> tagged "bool" [ Sexp.Atom (string_of_bool b) ]
  | Value.Int i -> tagged "int" [ Sexp.Atom (string_of_int i) ]
  | Value.Float f -> tagged "float" [ Sexp.Atom (Printf.sprintf "%h" f) ]
  | Value.String s -> tagged "string" [ Sexp.Atom s ]
  | Value.Date { Value.year; month; day } ->
      tagged "date"
        [
          Sexp.Atom (string_of_int year);
          Sexp.Atom (string_of_int month);
          Sexp.Atom (string_of_int day);
        ]

let names l = List.map (fun a -> Sexp.Atom a) l

let sexp_of_relation (r : Relation.t) =
  tagged "relation"
    [
      tagged "name" [ Sexp.Atom r.Relation.name ];
      tagged "attrs" (names r.Relation.attrs);
      tagged "domains"
        (List.map
           (fun a -> Sexp.Atom (Domain.to_string (Relation.domain_of r a)))
           r.Relation.attrs);
      tagged "uniques"
        (List.map (fun u -> Sexp.List (names u)) r.Relation.uniques);
      tagged "not-nulls" (names r.Relation.not_nulls);
    ]

let sexp_of_table t =
  tagged "table"
    [
      sexp_of_relation (Table.schema t);
      tagged "rows"
        (List.map
           (fun row -> Sexp.List (List.map sexp_of_value row))
           (Table.to_lists t));
    ]

let sexp_of_attr (a : Attribute.t) =
  tagged "attr" [ Sexp.Atom a.Attribute.rel; Sexp.List (names a.Attribute.attrs) ]

let sexp_of_join (j : Sqlx.Equijoin.t) =
  tagged "join"
    [
      Sexp.Atom j.Sqlx.Equijoin.rel1;
      Sexp.List (names j.Sqlx.Equijoin.attrs1);
      Sexp.Atom j.Sqlx.Equijoin.rel2;
      Sexp.List (names j.Sqlx.Equijoin.attrs2);
    ]

let sexp_of_ind i = Sexp.Atom (Ind.to_string i)
let sexp_of_fd f = Sexp.Atom (Fd.to_string f)

let sexp_of_reason = function
  | Supervise.Cancelled -> Sexp.Atom "cancelled"
  | Supervise.Deadline { limit_s; elapsed_s } ->
      tagged "deadline"
        [
          Sexp.Atom (Printf.sprintf "%h" limit_s);
          Sexp.Atom (Printf.sprintf "%h" elapsed_s);
        ]
  | Supervise.Heap { limit_words; live_words } ->
      tagged "heap"
        [
          Sexp.Atom (string_of_int limit_words);
          Sexp.Atom (string_of_int live_words);
        ]

let sexp_of_exhausted = function
  | None -> tagged "exhausted" []
  | Some r -> tagged "exhausted" [ sexp_of_reason r ]

let sexp_of_counts (c : Ind.counts) =
  tagged "counts"
    [
      Sexp.Atom (string_of_int c.Ind.n_left);
      Sexp.Atom (string_of_int c.Ind.n_right);
      Sexp.Atom (string_of_int c.Ind.n_join);
    ]

let sexp_of_decision = function
  | Oracle.Conceptualize name -> tagged "conceptualize" [ Sexp.Atom name ]
  | Oracle.Force_left_in_right -> Sexp.Atom "force-left-in-right"
  | Oracle.Force_right_in_left -> Sexp.Atom "force-right-in-left"
  | Oracle.Ignore_nei -> Sexp.Atom "ignore"

let sexp_of_case = function
  | Ind_discovery.Empty_intersection -> Sexp.Atom "empty"
  | Ind_discovery.Included inds ->
      tagged "included" (List.map sexp_of_ind inds)
  | Ind_discovery.Nei d -> tagged "nei" [ sexp_of_decision d ]

let sexp_of_ind_step (s : Ind_discovery.step) =
  tagged "step"
    [
      sexp_of_join s.Ind_discovery.join;
      sexp_of_counts s.Ind_discovery.counts;
      sexp_of_case s.Ind_discovery.case;
    ]

let sexp_of_outcome = function
  | Rhs_discovery.Fd_elicited fd -> tagged "fd-elicited" [ sexp_of_fd fd ]
  | Rhs_discovery.Became_hidden -> Sexp.Atom "became-hidden"
  | Rhs_discovery.Dropped -> Sexp.Atom "dropped"
  | Rhs_discovery.Already_hidden -> Sexp.Atom "already-hidden"

let sexp_of_rhs_step (s : Rhs_discovery.step) =
  tagged "step"
    [
      sexp_of_attr s.Rhs_discovery.candidate;
      Sexp.List (names s.Rhs_discovery.pruned_rhs);
      sexp_of_outcome s.Rhs_discovery.outcome;
    ]

(* --- payloads, as the per-stage writers built them --- *)

let ind_payload db (r : Ind_discovery.result) =
  let table_of rel =
    match Database.table_opt db rel.Relation.name with
    | Some t -> t
    | None -> Table.create rel
  in
  tagged "ind"
    [
      tagged "inds" (List.map sexp_of_ind r.Ind_discovery.inds);
      tagged "new-relations"
        (List.map
           (fun rel -> sexp_of_table (table_of rel))
           r.Ind_discovery.new_relations);
      tagged "steps" (List.map sexp_of_ind_step r.Ind_discovery.steps);
      tagged "unverified" (List.map sexp_of_join r.Ind_discovery.unverified);
      sexp_of_exhausted r.Ind_discovery.exhausted;
    ]

let lhs_payload (r : Lhs_discovery.result) =
  tagged "lhs"
    [
      tagged "lhs" (List.map sexp_of_attr r.Lhs_discovery.lhs);
      tagged "hidden" (List.map sexp_of_attr r.Lhs_discovery.hidden);
    ]

let rhs_payload (r : Rhs_discovery.result) =
  tagged "rhs"
    [
      tagged "fds" (List.map sexp_of_fd r.Rhs_discovery.fds);
      tagged "hidden" (List.map sexp_of_attr r.Rhs_discovery.hidden);
      tagged "steps" (List.map sexp_of_rhs_step r.Rhs_discovery.steps);
      tagged "unverified" (List.map sexp_of_attr r.Rhs_discovery.unverified);
      sexp_of_exhausted r.Rhs_discovery.exhausted;
    ]

let restruct_payload (r : Restruct.result) =
  let database =
    match r.Restruct.database with
    | None -> tagged "database" [ Sexp.Atom "none" ]
    | Some db ->
        tagged "database"
          (List.map
             (fun rel -> sexp_of_table (Database.table db rel.Relation.name))
             (Schema.relations (Database.schema db)))
  in
  tagged "restruct"
    [
      tagged "schema"
        (List.map sexp_of_relation (Schema.relations r.Restruct.schema));
      tagged "inds" (List.map sexp_of_ind r.Restruct.inds);
      tagged "ric" (List.map sexp_of_ind r.Restruct.ric);
      tagged "renamings"
        (List.map
           (fun (a, name) -> Sexp.List [ sexp_of_attr a; Sexp.Atom name ])
           r.Restruct.renamings);
      database;
    ]

let translate_payload (r : Translate.result) =
  tagged "translate"
    [
      tagged "entities"
        (List.map
           (fun (r, e) -> Sexp.List [ Sexp.Atom r; Sexp.Atom e ])
           r.Translate.entity_of_relation);
      tagged "eer" [ Sexp.Atom (Er.Text_render.to_string r.Translate.eer) ];
    ]

(* --- the file --- *)

(* the v2 document up to its final newline: header, checksum over the
   printed payload, the payload printed again *)
let printed stage payload =
  to_string
    (tagged "checkpoint"
       [
         tagged "version" [ Sexp.Atom "2" ];
         tagged "stage" [ Sexp.Atom (Checkpoint.stage_name stage) ];
         tagged "checksum" [ Sexp.Atom (fnv1a64 (to_string payload)) ];
         payload;
       ])

(* the file's bytes *)
let document stage payload = printed stage payload ^ "\n"

let write ~dir stage payload =
  Checkpoint.ensure_dir dir;
  let file = Checkpoint.path ~dir stage in
  let tmp = file ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (printed stage payload);
      Out_channel.output_char oc '\n');
  Sys.rename tmp file

let write_restruct ~dir r =
  write ~dir Checkpoint.Restruct (restruct_payload r)
