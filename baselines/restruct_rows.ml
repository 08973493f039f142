(* Restruct's data migration as it stood before it moved onto column
   codes: every migrated table is built whole from tuple arrays — the
   input tables are materialized, hidden objects come from
   [Table.project_distinct], FD relations from hashing projected
   tuples, and every split re-projects the shrunk source row by row.
   Kept as the equivalence oracle for [Dbre.Restruct] (test_restruct)
   and as the baseline bench B10 times the columnar migration against.
   The schema and IND rewriting is the same algorithm as Restruct's. *)

open Relational
open Deps
open Dbre

let fresh_name schema base =
  let rec go i =
    let candidate = if i = 0 then base else Printf.sprintf "%s_%d" base i in
    if Schema.mem schema candidate then go (i + 1) else candidate
  in
  go 0

(* rewrite one IND side: occurrences of rel[attrs ⊆ moved] become
   new_rel[attrs]; [exact] additionally requires set equality with the
   moved attributes (the H case rewrites only R_i[A_i] itself) *)
let rewrite_side ~rel ~moved ~new_rel ~exact (side_rel, side_attrs) =
  if
    String.equal side_rel rel
    &&
    let canon = Attribute.Names.normalize side_attrs in
    if exact then Attribute.Names.equal canon moved
    else Attribute.Names.subset canon moved
  then (new_rel, side_attrs)
  else (side_rel, side_attrs)

let rewrite_inds ~rel ~moved ~new_rel ~exact inds =
  List.map
    (fun (ind : Ind.t) ->
      let lhs =
        rewrite_side ~rel ~moved ~new_rel ~exact
          (ind.Ind.lhs_rel, ind.Ind.lhs_attrs)
      in
      let rhs =
        rewrite_side ~rel ~moved ~new_rel ~exact
          (ind.Ind.rhs_rel, ind.Ind.rhs_attrs)
      in
      Ind.make lhs rhs)
    inds

let run (oracle : Oracle.t) ?db ~schema ~fds ~hidden ~inds () =
  let schema = ref schema in
  let inds = ref inds in
  let renamings = ref [] in
  let out_db = Option.map Database.copy_structure db in
  (* copy original extensions into the output database: every migrated
     table is built whole from its tuple array (tuples are immutable,
     so the source's array is shared, not copied) *)
  (match (db, out_db) with
  | Some src, Some dst ->
      List.iter
        (fun r ->
          let name = r.Relation.name in
          Database.replace_table dst
            (Table.of_rows
               (Table.schema (Database.table dst name))
               (Table.rows (Database.table src name))))
        (Schema.relations (Database.schema src))
  | _ -> ());
  let add_relation rel rows =
    schema := Schema.add !schema rel;
    match out_db with
    | None -> ()
    | Some d ->
        Database.add_relation d rel;
        Database.replace_table d (Table.of_rows rel rows)
  in
  (* ---- hidden objects ---- *)
  List.iter
    (fun (h : Attribute.t) ->
      let src_rel = h.Attribute.rel and attrs = h.Attribute.attrs in
      let name = fresh_name !schema (oracle.Oracle.name_hidden h) in
      let domains =
        match Schema.find !schema src_rel with
        | Some source ->
            List.filter_map
              (fun a ->
                if Relation.has_attr source a then
                  Some (a, Relation.domain_of source a)
                else None)
              attrs
        | None -> []
      in
      let rel = Relation.make ~domains ~uniques:[ attrs ] name attrs in
      let rows =
        match db with
        | None -> [||]
        | Some d -> (
            match Database.table_opt d src_rel with
            | Some t ->
                Array.of_list
                  (List.map Tuple.of_list (Table.project_distinct t attrs))
            | None -> [||])
      in
      add_relation rel rows;
      renamings := (h, name) :: !renamings;
      let moved = Attribute.Names.normalize attrs in
      inds := rewrite_inds ~rel:src_rel ~moved ~new_rel:name ~exact:true !inds;
      inds := !inds @ [ Ind.make (src_rel, attrs) (name, attrs) ])
    hidden;
  (* ---- FD splits ---- *)
  List.iter
    (fun (fd : Fd.t) ->
      match Schema.find !schema fd.Fd.rel with
      | None -> ()
      | Some source
        when List.for_all (Relation.has_attr source) fd.Fd.lhs
             && List.exists (Relation.has_attr source) fd.Fd.rhs ->
          (* an earlier split may have moved part of this FD's RHS out of
             the source relation: restrict to what is still there *)
          let fd =
            Fd.make fd.Fd.rel fd.Fd.lhs
              (List.filter (Relation.has_attr source) fd.Fd.rhs)
          in
          let name = fresh_name !schema (oracle.Oracle.name_fd_relation fd) in
          (* keep the source's declared attribute order: A_i then B_i *)
          let ordered =
            List.filter
              (fun a ->
                Attribute.Names.mem a fd.Fd.lhs
                || Attribute.Names.mem a fd.Fd.rhs)
              source.Relation.attrs
          in
          let domains =
            List.map (fun a -> (a, Relation.domain_of source a)) ordered
          in
          let rel =
            Relation.make ~domains ~uniques:[ fd.Fd.lhs ]
              ~not_nulls:
                (List.filter
                   (fun a -> Attribute.Names.mem a source.Relation.not_nulls)
                   ordered)
              name ordered
          in
          let rows =
            match db with
            | None -> [||]
            | Some d -> (
                match Database.table_opt d fd.Fd.rel with
                | Some t ->
                    (* distinct projections with a non-null LHS, in
                       first-occurrence order: a null identifier denotes
                       "no object" *)
                    let lidx = Table.positions t fd.Fd.lhs in
                    let oidx = Table.positions t ordered in
                    let seen = Hashtbl.create 64 in
                    let out = ref [] in
                    Array.iter
                      (fun tup ->
                        if not (Tuple.has_null_at lidx tup) then begin
                          let proj = Tuple.project oidx tup in
                          if not (Hashtbl.mem seen proj) then begin
                            Hashtbl.add seen proj ();
                            out := proj :: !out
                          end
                        end)
                      (Table.rows t);
                    Array.of_list (List.rev !out)
                | None -> [||])
          in
          add_relation rel rows;
          renamings := (Attribute.make fd.Fd.rel fd.Fd.lhs, name) :: !renamings;
          (* shrink the source relation *)
          let shrunk = Relation.remove_attrs source fd.Fd.rhs in
          schema := Schema.replace !schema shrunk;
          (match out_db with
          | None -> ()
          | Some d ->
              let old_table = Database.table d fd.Fd.rel in
              let keep_idx = Table.positions old_table shrunk.Relation.attrs in
              (* swap the table in place by re-adding *)
              Database.replace_table d
                (Table.of_rows shrunk
                   (Array.map (Tuple.project keep_idx)
                      (Table.rows old_table))));
          (* rewrite INDs: A_i occurrences exactly, B_i subsets *)
          inds :=
            rewrite_inds ~rel:fd.Fd.rel ~moved:fd.Fd.lhs ~new_rel:name
              ~exact:true !inds;
          inds :=
            rewrite_inds ~rel:fd.Fd.rel ~moved:fd.Fd.rhs ~new_rel:name
              ~exact:false !inds;
          inds := !inds @ [ Ind.make (fd.Fd.rel, fd.Fd.lhs) (name, fd.Fd.lhs) ]
      | Some _ -> () (* LHS gone or RHS fully moved: nothing left to split *))
    fds;
  let final_schema = !schema in
  let nontrivial (ind : Ind.t) =
    not
      (String.equal ind.Ind.lhs_rel ind.Ind.rhs_rel
      && ind.Ind.lhs_attrs = ind.Ind.rhs_attrs)
  in
  let ric =
    List.filter
      (fun ind -> nontrivial ind && Ind.key_based final_schema ind)
      !inds
  in
  {
    Restruct.schema = final_schema;
    inds = !inds;
    ric;
    renamings = List.rev !renamings;
    database = out_db;
  }
