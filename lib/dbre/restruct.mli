(** The Restruct algorithm (§7): from the elicited knowledge to a 3NF
    relational schema with keys and referential integrity constraints.

    Steps, as in the paper:
    + each hidden object [R_i.A_i ∈ H] is materialized as a new relation
      [R_p(A_i)] with key [A_i]; the IND [R_i[A_i] ≪ R_p[A_i]] is added
      and every other occurrence of [R_i[A_i]] in [IND] is rewritten to
      [R_p[A_i]];
    + each FD [R_i : A_i -> B_i ∈ F] is split off into [R_p(A_i, B_i)]
      with key [A_i]; [B_i] is removed from [R_i]; the IND
      [R_i[A_i] ≪ R_p[A_i]] is added and occurrences of [R_i[A_i]] and
      [R_i[B'⊆B_i]] are rewritten to [R_p];
    + [RIC] is the subset of the rewritten [IND] whose right-hand side
      is a key.

    When a database is supplied, the new relations are populated (a
    hidden object with the distinct values of its source projection, an
    FD relation with the distinct [A_i ∪ B_i] projection) and [B_i]
    columns are physically dropped — so the output database matches the
    output schema and the constraints can be re-verified on it.

    The migration works on the input tables' column stores
    ({!Column_store.of_table}), never on their tuple arrays: every
    output table is a {!Column_store.derive} of one input store — all
    rows with fewer columns for an untouched or shrunk relation
    (projected once, to its final columns, however many splits narrowed
    it), the first row of each distinct [A_i ∪ B_i] code tuple with a
    non-NULL [A_i] for an FD relation ({!Column_store.distinct_rows}),
    and one row per distinct value, in [Table.project_distinct] order,
    for a hidden object ({!Column_store.project_distinct_rows}). Output
    tables are unmaterialized, their stores fully encoded, and they share
    no mutable state with the input: mutating either database later
    never reaches the other. The rows, their order and the schemas are
    exactly those of the row-at-a-time migration this replaced (kept as
    the test oracle [Baselines.Restruct_rows]). *)

open Relational
open Deps

type result = {
  schema : Schema.t;  (** the restructured schema [R ⊔ S] with keys *)
  inds : Ind.t list;  (** the rewritten IND set *)
  ric : Ind.t list;  (** key-based INDs: the referential constraints *)
  renamings : (Attribute.t * string) list;
      (** which hidden object / FD became which relation *)
  database : Database.t option;  (** migrated data when input had some *)
}

val run :
  Oracle.t ->
  ?db:Database.t ->
  schema:Schema.t ->
  fds:Fd.t list ->
  hidden:Attribute.t list ->
  inds:Ind.t list ->
  unit ->
  result
(** The oracle provides relation names ([name_hidden],
    [name_fd_relation]); name collisions with existing relations are
    resolved by numeric suffixes. The input schema/database are not
    mutated. *)
