open Relational
open Deps

type stage = Ind | Lhs | Rhs | Restruct | Translate

let stage_name = function
  | Ind -> "ind-discovery"
  | Lhs -> "lhs-discovery"
  | Rhs -> "rhs-discovery"
  | Restruct -> "restruct"
  | Translate -> "translate"

let stage_index = function
  | Ind -> 1
  | Lhs -> 2
  | Rhs -> 3
  | Restruct -> 4
  | Translate -> 5

let path ~dir stage =
  Filename.concat dir
    (Printf.sprintf "%d-%s.ckpt" (stage_index stage) (stage_name stage))

let version = 2

exception Corrupt of string

let corrupt msg = raise (Corrupt msg)

(* Content checksum (v2): FNV-1a 64 over the payload's bytes exactly
   as they sit in the file. The writer folds it chunk by chunk as it
   streams; the reader hashes the bytes it read, so a file truncated or
   edited into something still parseable is detected as corrupt (and
   recomputed) rather than resumed from. *)
let fnv_offset = 0xcbf29ce484222325L

let fnv_fold h b pos len =
  let h = ref h in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001b3L
  done;
  !h

let hex_digest h = Printf.sprintf "%016Lx" h

(* Everything before the checksum digits. The digits have a fixed
   width, so the payload starts at a fixed offset and the writer can
   patch them in after streaming the payload. *)
let header stage =
  Printf.sprintf "(checkpoint (version %d) (stage %s) (checksum " version
    (stage_name stage)

let digits = 16
let after_digits = ") "
let trailer = ")\n"

(* --- streaming writer --- *)

(* Payload text accumulates in [buf]; whenever it holds a chunk's worth
   it is folded into the running checksum and written out, so a write
   holds one chunk of the file, never the document or a tree of it. *)
type writer = {
  oc : Out_channel.t;
  buf : Buffer.t;
  chunk : Bytes.t;
  mutable sum : int64;
}

let chunk_size = 1 lsl 16

let drain w =
  let len = Buffer.length w.buf in
  let rec go off =
    if off < len then begin
      let n = min chunk_size (len - off) in
      Buffer.blit w.buf off w.chunk 0 n;
      w.sum <- fnv_fold w.sum w.chunk 0 n;
      Out_channel.output w.oc w.chunk 0 n;
      go (off + n)
    end
  in
  go 0;
  Buffer.clear w.buf

let spill w = if Buffer.length w.buf >= chunk_size then drain w

(* Emitters: an ['a] emitter appends one ['a]'s canonical text to the
   writer — what {!Sexp.to_string} prints for its tree form: atoms
   through {!Sexp.add_atom}, list items separated by one space,
   nothing else. *)
let str w s = Buffer.add_string w.buf s
let char w c = Buffer.add_char w.buf c
let put_atom s w = Sexp.add_atom w.buf s

let rec put_digits w n =
  if n >= 10 then put_digits w (n / 10);
  char w (Char.unsafe_chr (48 + (n mod 10)))

(* [string_of_int] without the allocation; an integer atom never needs
   quoting *)
let put_int i w =
  if i >= 0 then put_digits w i
  else if i = min_int then str w (string_of_int i)
  else begin
    char w '-';
    put_digits w (-i)
  end

let put_float f = put_atom (Printf.sprintf "%h" f)

(* [(item item ...)] *)
let put_list put items w =
  char w '(';
  List.iteri
    (fun i x ->
      if i > 0 then char w ' ';
      put x w)
    items;
  char w ')'

(* [(tag field ...)]; [(tag)] without fields. Spills after each field,
   so a long list is never held whole either. *)
let put_fields tag fields w =
  char w '(';
  str w tag;
  List.iter
    (fun field ->
      char w ' ';
      field w;
      spill w)
    fields;
  char w ')'

let put_tagged tag put items = put_fields tag (List.map put items)
let put_names = put_list put_atom

(* --- generic sexp readers --- *)

let atom = function Sexp.Atom a -> a | Sexp.List _ -> corrupt "expected atom"

let int_atom s =
  match int_of_string_opt (atom s) with
  | Some i -> i
  | None -> corrupt "expected integer atom"

let assoc tag fields =
  let hit = function
    | Sexp.List (Sexp.Atom t :: _) -> String.equal t tag
    | _ -> false
  in
  match List.find_opt hit fields with
  | Some (Sexp.List (_ :: rest)) -> rest
  | _ -> corrupt ("missing field " ^ tag)

let names_of_sexps l = List.map atom l

(* --- leaf codecs --- *)

(* one call per cell: direct appends, no allocation but a float's
   text *)
let put_value v w =
  match v with
  | Value.Null -> str w "(null)"
  | Value.Bool true -> str w "(bool true)"
  | Value.Bool false -> str w "(bool false)"
  | Value.Int i ->
      str w "(int ";
      put_int i w;
      char w ')'
  | Value.Float f ->
      str w "(float ";
      put_float f w;
      char w ')'
  | Value.String s ->
      str w "(string ";
      put_atom s w;
      char w ')'
  | Value.Date { Value.year; month; day } ->
      str w "(date ";
      put_int year w;
      char w ' ';
      put_int month w;
      char w ' ';
      put_int day w;
      char w ')'

let value_of_sexp = function
  | Sexp.List [ Sexp.Atom "null" ] -> Value.Null
  | Sexp.List [ Sexp.Atom "bool"; b ] -> (
      match atom b with
      | "true" -> Value.Bool true
      | "false" -> Value.Bool false
      | _ -> corrupt "bad bool")
  | Sexp.List [ Sexp.Atom "int"; i ] -> Value.Int (int_atom i)
  | Sexp.List [ Sexp.Atom "float"; f ] -> (
      match float_of_string_opt (atom f) with
      | Some f -> Value.Float f
      | None -> corrupt "bad float")
  | Sexp.List [ Sexp.Atom "string"; s ] -> Value.String (atom s)
  | Sexp.List [ Sexp.Atom "date"; y; m; d ] ->
      Value.date (int_atom y) (int_atom m) (int_atom d)
  | _ -> corrupt "bad value"

let domain_of_string = function
  | "bool" -> Domain.Bool
  | "int" -> Domain.Int
  | "float" -> Domain.Float
  | "string" -> Domain.String
  | "date" -> Domain.Date
  | "unknown" -> Domain.Unknown
  | s -> corrupt ("bad domain " ^ s)

let put_relation (r : Relation.t) =
  put_fields "relation"
    [
      put_tagged "name" put_atom [ r.Relation.name ];
      put_tagged "attrs" put_atom r.Relation.attrs;
      put_tagged "domains" put_atom
        (List.map
           (fun a -> Domain.to_string (Relation.domain_of r a))
           r.Relation.attrs);
      put_tagged "uniques" put_names r.Relation.uniques;
      put_tagged "not-nulls" put_atom r.Relation.not_nulls;
    ]

let relation_of_sexp = function
  | Sexp.List (Sexp.Atom "relation" :: fields) ->
      let name =
        match assoc "name" fields with [ n ] -> atom n | _ -> corrupt "name"
      in
      let attrs = names_of_sexps (assoc "attrs" fields) in
      let domains =
        List.map2
          (fun a d -> (a, domain_of_string (atom d)))
          attrs (assoc "domains" fields)
      in
      let uniques =
        List.map
          (function
            | Sexp.List u -> names_of_sexps u | Sexp.Atom _ -> corrupt "unique")
          (assoc "uniques" fields)
      in
      let not_nulls = names_of_sexps (assoc "not-nulls" fields) in
      Relation.make ~domains ~uniques ~not_nulls name attrs
  | _ -> corrupt "bad relation"

(* Rows go straight into the buffer, one chunk spilled at a time: from
   the tuple array when the table holds one, else as codes read segment
   by segment from its column store, so an unmaterialized table (a
   CSV-loaded input, a migrated relation) stays unmaterialized. *)
let put_table t w =
  str w "(table ";
  put_relation (Table.schema t) w;
  str w " (rows";
  let row_end () =
    char w ')';
    spill w
  in
  if Table.materialized t then
    Array.iter
      (fun row ->
        str w " (";
        for j = 0 to Array.length row - 1 do
          if j > 0 then char w ' ';
          put_value row.(j) w
        done;
        row_end ())
      (Table.rows t)
  else begin
    let s = Column_store.of_table t in
    let attrs = (Table.schema t).Relation.attrs in
    let dicts =
      Array.of_list
        (List.map (fun a -> Column_store.(column_dict (column s a))) attrs)
    in
    Column_store.iter_codes s attrs (fun codes ->
        str w " (";
        for j = 0 to Array.length codes - 1 do
          if j > 0 then char w ' ';
          put_value dicts.(j).(codes.(j)) w
        done;
        row_end ())
  end;
  str w "))"

(* one tuple array per table, handed whole to {!Table.of_rows} *)
let table_of_sexp = function
  | Sexp.List [ Sexp.Atom "table"; rel; Sexp.List (Sexp.Atom "rows" :: rows) ]
    ->
      let tups = Array.make (List.length rows) [||] in
      List.iteri
        (fun i -> function
          | Sexp.List cells ->
              tups.(i) <- Array.of_list (List.map value_of_sexp cells)
          | Sexp.Atom _ -> corrupt "bad row")
        rows;
      Table.of_rows (relation_of_sexp rel) tups
  | _ -> corrupt "bad table"

let put_attr (a : Attribute.t) =
  put_fields "attr" [ put_atom a.Attribute.rel; put_names a.Attribute.attrs ]

let attr_of_sexp = function
  | Sexp.List [ Sexp.Atom "attr"; rel; Sexp.List attrs ] ->
      Attribute.make (atom rel) (names_of_sexps attrs)
  | _ -> corrupt "bad attr"

let put_join (j : Sqlx.Equijoin.t) =
  put_fields "join"
    [
      put_atom j.Sqlx.Equijoin.rel1;
      put_names j.Sqlx.Equijoin.attrs1;
      put_atom j.Sqlx.Equijoin.rel2;
      put_names j.Sqlx.Equijoin.attrs2;
    ]

let join_of_sexp = function
  | Sexp.List
      [ Sexp.Atom "join"; r1; Sexp.List a1; r2; Sexp.List a2 ] ->
      Sqlx.Equijoin.make
        (atom r1, names_of_sexps a1)
        (atom r2, names_of_sexps a2)
  | _ -> corrupt "bad join"

let put_ind i = put_atom (Ind.to_string i)
let ind_of_sexp s = Ind.parse (atom s)
let put_fd f = put_atom (Fd.to_string f)
let fd_of_sexp s = Fd.parse (atom s)

let put_reason = function
  | Supervise.Cancelled -> put_atom "cancelled"
  | Supervise.Deadline { limit_s; elapsed_s } ->
      put_fields "deadline" [ put_float limit_s; put_float elapsed_s ]
  | Supervise.Heap { limit_words; live_words } ->
      put_fields "heap" [ put_int limit_words; put_int live_words ]

let reason_of_sexp = function
  | Sexp.Atom "cancelled" -> Supervise.Cancelled
  | Sexp.List [ Sexp.Atom "deadline"; l; e ] -> (
      match (float_of_string_opt (atom l), float_of_string_opt (atom e)) with
      | Some limit_s, Some elapsed_s -> Supervise.Deadline { limit_s; elapsed_s }
      | _ -> corrupt "bad deadline reason")
  | Sexp.List [ Sexp.Atom "heap"; l; w ] ->
      Supervise.Heap { limit_words = int_atom l; live_words = int_atom w }
  | _ -> corrupt "bad reason"

(* [None] (a complete stage) serializes as an empty [exhausted] field
   so v2 checkpoints always carry the completeness verdict explicitly *)
let put_exhausted r = put_tagged "exhausted" put_reason (Option.to_list r)

let exhausted_of_sexps = function
  | [] -> None
  | [ r ] -> Some (reason_of_sexp r)
  | _ -> corrupt "bad exhausted"

(* --- ind-discovery --- *)

let put_counts (c : Ind.counts) =
  put_fields "counts"
    [ put_int c.Ind.n_left; put_int c.Ind.n_right; put_int c.Ind.n_join ]

let counts_of_sexp = function
  | Sexp.List [ Sexp.Atom "counts"; l; r; j ] ->
      { Ind.n_left = int_atom l; n_right = int_atom r; n_join = int_atom j }
  | _ -> corrupt "bad counts"

let put_decision = function
  | Oracle.Conceptualize name -> put_tagged "conceptualize" put_atom [ name ]
  | Oracle.Force_left_in_right -> put_atom "force-left-in-right"
  | Oracle.Force_right_in_left -> put_atom "force-right-in-left"
  | Oracle.Ignore_nei -> put_atom "ignore"

let decision_of_sexp = function
  | Sexp.List [ Sexp.Atom "conceptualize"; n ] -> Oracle.Conceptualize (atom n)
  | Sexp.Atom "force-left-in-right" -> Oracle.Force_left_in_right
  | Sexp.Atom "force-right-in-left" -> Oracle.Force_right_in_left
  | Sexp.Atom "ignore" -> Oracle.Ignore_nei
  | _ -> corrupt "bad nei decision"

let put_case = function
  | Ind_discovery.Empty_intersection -> put_atom "empty"
  | Ind_discovery.Included inds -> put_tagged "included" put_ind inds
  | Ind_discovery.Nei d -> put_tagged "nei" put_decision [ d ]

let case_of_sexp = function
  | Sexp.Atom "empty" -> Ind_discovery.Empty_intersection
  | Sexp.List (Sexp.Atom "included" :: inds) ->
      Ind_discovery.Included (List.map ind_of_sexp inds)
  | Sexp.List [ Sexp.Atom "nei"; d ] -> Ind_discovery.Nei (decision_of_sexp d)
  | _ -> corrupt "bad case"

let put_ind_step (s : Ind_discovery.step) =
  put_fields "step"
    [
      put_join s.Ind_discovery.join;
      put_counts s.Ind_discovery.counts;
      put_case s.Ind_discovery.case;
    ]

let ind_step_of_sexp = function
  | Sexp.List [ Sexp.Atom "step"; j; c; k ] ->
      {
        Ind_discovery.join = join_of_sexp j;
        counts = counts_of_sexp c;
        case = case_of_sexp k;
      }
  | _ -> corrupt "bad ind step"

(* --- rhs-discovery --- *)

let put_outcome = function
  | Rhs_discovery.Fd_elicited fd -> put_tagged "fd-elicited" put_fd [ fd ]
  | Rhs_discovery.Became_hidden -> put_atom "became-hidden"
  | Rhs_discovery.Dropped -> put_atom "dropped"
  | Rhs_discovery.Already_hidden -> put_atom "already-hidden"

let outcome_of_sexp = function
  | Sexp.List [ Sexp.Atom "fd-elicited"; fd ] ->
      Rhs_discovery.Fd_elicited (fd_of_sexp fd)
  | Sexp.Atom "became-hidden" -> Rhs_discovery.Became_hidden
  | Sexp.Atom "dropped" -> Rhs_discovery.Dropped
  | Sexp.Atom "already-hidden" -> Rhs_discovery.Already_hidden
  | _ -> corrupt "bad outcome"

let put_rhs_step (s : Rhs_discovery.step) =
  put_fields "step"
    [
      put_attr s.Rhs_discovery.candidate;
      put_names s.Rhs_discovery.pruned_rhs;
      put_outcome s.Rhs_discovery.outcome;
    ]

let rhs_step_of_sexp = function
  | Sexp.List [ Sexp.Atom "step"; cand; Sexp.List pruned; out ] ->
      {
        Rhs_discovery.candidate = attr_of_sexp cand;
        pruned_rhs = names_of_sexps pruned;
        outcome = outcome_of_sexp out;
      }
  | _ -> corrupt "bad rhs step"

(* --- file IO --- *)

let rec ensure_dir dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    ensure_dir (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* [(checkpoint (version 2) (stage <name>) (checksum <16 hex>) <payload>)]
   and a newline, written in one pass: header with placeholder digits,
   the payload streamed through the checksum, the trailer, then a seek
   back to patch the digits in. Atomic: tmp file + rename. *)
let write_file ~dir stage payload =
  ensure_dir dir;
  let file = path ~dir stage in
  let tmp = file ^ ".tmp" in
  let head = header stage in
  (try
     Out_channel.with_open_bin tmp (fun oc ->
         Out_channel.output_string oc head;
         Out_channel.output_string oc (String.make digits '0');
         Out_channel.output_string oc after_digits;
         let w =
           {
             oc;
             buf = Buffer.create (2 * chunk_size);
             chunk = Bytes.create chunk_size;
             sum = fnv_offset;
           }
         in
         payload w;
         drain w;
         Out_channel.output_string oc trailer;
         Out_channel.seek oc (Int64.of_int (String.length head));
         Out_channel.output_string oc (hex_digest w.sum))
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp file

(* The payload's bytes are hashed as read, between the fixed-layout
   header and trailer; only a file whose layout and checksum both hold
   is parsed. *)
let read_payload ~dir stage =
  let file = path ~dir stage in
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      let head = header stage in
      let start = String.length head + digits + String.length after_digits in
      let stop = String.length text - String.length trailer in
      let at pos s =
        String.equal (String.sub text pos (String.length s)) s
      in
      if
        stop <= start
        || (not (String.starts_with ~prefix:head text))
        || (not (at (String.length head + digits) after_digits))
        || not (at stop trailer)
      then None
      else
        let sum =
          fnv_fold fnv_offset
            (Bytes.unsafe_of_string text)
            start (stop - start)
        in
        if
          not
            (String.equal (hex_digest sum)
               (String.sub text (String.length head) digits))
        then None
        else
          match Sexp.of_substring text ~pos:start ~len:(stop - start) with
          | payload -> Some payload
          | exception Sexp.Parse_error _ -> None

let decode payload f = try Some (f payload) with _ -> None

(* --- per-stage API --- *)

(* Mutation makes every checkpointed stage stale at once (each one
   embeds verdicts over the old extension), so refresh invalidates the
   whole directory rather than cascading. *)
let invalidate ~dir =
  List.iter
    (fun stage ->
      let file = path ~dir stage in
      if Sys.file_exists file then try Sys.remove file with Sys_error _ -> ())
    [ Ind; Lhs; Rhs; Restruct; Translate ]

let write_ind ~dir db (r : Ind_discovery.result) =
  let table_of rel =
    match Database.table_opt db rel.Relation.name with
    | Some t -> t
    | None -> Table.create rel
  in
  write_file ~dir Ind
    (put_fields "ind"
       [
         put_tagged "inds" put_ind r.Ind_discovery.inds;
         put_tagged "new-relations"
           (fun rel -> put_table (table_of rel))
           r.Ind_discovery.new_relations;
         put_tagged "steps" put_ind_step r.Ind_discovery.steps;
         put_tagged "unverified" put_join r.Ind_discovery.unverified;
         put_exhausted r.Ind_discovery.exhausted;
       ])

let load_ind ~dir db =
  match read_payload ~dir Ind with
  | None -> None
  | Some payload ->
      decode payload (function
        | Sexp.List (Sexp.Atom "ind" :: fields) ->
            let inds = List.map ind_of_sexp (assoc "inds" fields) in
            let tables = List.map table_of_sexp (assoc "new-relations" fields) in
            let steps = List.map ind_step_of_sexp (assoc "steps" fields) in
            (* conceptualized relations join the live database again, with
               their checkpointed intersection extension *)
            List.iter (Database.replace_table db) tables;
            {
              Ind_discovery.inds;
              new_relations = List.map Table.schema tables;
              steps;
              unverified = List.map join_of_sexp (assoc "unverified" fields);
              exhausted = exhausted_of_sexps (assoc "exhausted" fields);
            }
        | _ -> corrupt "bad ind payload")

let write_lhs ~dir (r : Lhs_discovery.result) =
  write_file ~dir Lhs
    (put_fields "lhs"
       [
         put_tagged "lhs" put_attr r.Lhs_discovery.lhs;
         put_tagged "hidden" put_attr r.Lhs_discovery.hidden;
       ])

let load_lhs ~dir =
  match read_payload ~dir Lhs with
  | None -> None
  | Some payload ->
      decode payload (function
        | Sexp.List (Sexp.Atom "lhs" :: fields) ->
            {
              Lhs_discovery.lhs = List.map attr_of_sexp (assoc "lhs" fields);
              hidden = List.map attr_of_sexp (assoc "hidden" fields);
            }
        | _ -> corrupt "bad lhs payload")

let write_rhs ~dir (r : Rhs_discovery.result) =
  write_file ~dir Rhs
    (put_fields "rhs"
       [
         put_tagged "fds" put_fd r.Rhs_discovery.fds;
         put_tagged "hidden" put_attr r.Rhs_discovery.hidden;
         put_tagged "steps" put_rhs_step r.Rhs_discovery.steps;
         put_tagged "unverified" put_attr r.Rhs_discovery.unverified;
         put_exhausted r.Rhs_discovery.exhausted;
       ])

let load_rhs ~dir =
  match read_payload ~dir Rhs with
  | None -> None
  | Some payload ->
      decode payload (function
        | Sexp.List (Sexp.Atom "rhs" :: fields) ->
            {
              Rhs_discovery.fds = List.map fd_of_sexp (assoc "fds" fields);
              hidden = List.map attr_of_sexp (assoc "hidden" fields);
              steps = List.map rhs_step_of_sexp (assoc "steps" fields);
              unverified = List.map attr_of_sexp (assoc "unverified" fields);
              exhausted = exhausted_of_sexps (assoc "exhausted" fields);
            }
        | _ -> corrupt "bad rhs payload")

let write_restruct ~dir (r : Restruct.result) =
  let database =
    match r.Restruct.database with
    | None -> put_tagged "database" put_atom [ "none" ]
    | Some db ->
        put_tagged "database"
          (fun rel -> put_table (Database.table db rel.Relation.name))
          (Schema.relations (Database.schema db))
  in
  write_file ~dir Restruct
    (put_fields "restruct"
       [
         put_tagged "schema" put_relation (Schema.relations r.Restruct.schema);
         put_tagged "inds" put_ind r.Restruct.inds;
         put_tagged "ric" put_ind r.Restruct.ric;
         put_tagged "renamings"
           (fun (a, name) -> put_list Fun.id [ put_attr a; put_atom name ])
           r.Restruct.renamings;
         database;
       ])

let load_restruct ~dir =
  match read_payload ~dir Restruct with
  | None -> None
  | Some payload ->
      decode payload (function
        | Sexp.List (Sexp.Atom "restruct" :: fields) ->
            let schema =
              Schema.of_relations
                (List.map relation_of_sexp (assoc "schema" fields))
            in
            let inds = List.map ind_of_sexp (assoc "inds" fields) in
            let ric = List.map ind_of_sexp (assoc "ric" fields) in
            let renamings =
              List.map
                (function
                  | Sexp.List [ a; n ] -> (attr_of_sexp a, atom n)
                  | _ -> corrupt "bad renaming")
                (assoc "renamings" fields)
            in
            let database =
              match assoc "database" fields with
              | [ Sexp.Atom "none" ] -> None
              | tables ->
                  let db = Database.create Schema.empty in
                  List.iter
                    (fun t -> Database.replace_table db (table_of_sexp t))
                    tables;
                  Some db
            in
            { Restruct.schema; inds; ric; renamings; database }
        | _ -> corrupt "bad restruct payload")

let write_translate ~dir (r : Translate.result) =
  (* The EER graph has no deserializer; this checkpoint is a completion
     marker carrying a human-readable rendering. Resume recomputes
     Translate from the restruct checkpoint (cheap and deterministic). *)
  write_file ~dir Translate
    (put_fields "translate"
       [
         put_tagged "entities"
           (fun (r, e) -> put_names [ r; e ])
           r.Translate.entity_of_relation;
         put_tagged "eer" put_atom [ Er.Text_render.to_string r.Translate.eer ];
       ])

let translate_done ~dir = read_payload ~dir Translate <> None
