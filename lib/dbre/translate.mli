(** The Translate algorithm (§7): restructured relational schema → EER.

    Classification per referential integrity constraint
    [R_l[A_l] ≪ R_k[A_k]]:
    - (a) [A_l] is a key of [R_l] — an {e is-a} link [R_l is-a R_k];
    - (b) [A_l] is a proper part of a key of [R_l]: consider the
      partition of that key induced by the key-part RICs leaving [R_l];
      if every key attribute is covered, [R_l] is an {e n-ary
      many-to-many relationship-type} whose roles are the RIC targets;
      otherwise [R_l] is a {e weak entity-type} owned by [R_k];
    - (c) [A_l] is disjoint from the keys of [R_l] — a {e binary
      relationship-type} between [R_l] and [R_k] realized by [A_l]
      (the attribute leaves the entity and becomes a relationship leg).

    Every relation not classified as a relationship-type maps to an
    entity-type (weak when (b) fired without full coverage); its
    identifier is its first declared key, minus — for weak entities —
    the part borrowed from the owner. Cyclic is-a links are guarded
    against by ignoring a link that would close a cycle. *)

open Relational
open Deps

type result = {
  eer : Er.Eer.t;
  entity_of_relation : (string * string) list;
      (** relation name → entity/relationship name (identity here, kept
          for downstream tooling symmetric with Restruct.renamings) *)
}

val run : ?db:Database.t -> schema:Schema.t -> Ind.t list -> result
(** [run ~schema ric]. Relations referenced by RICs but missing from the schema are
    ignored. Binary-relationship names are derived as [Rl_Rk] with a
    numeric suffix on collision.

    When a database (normally the migrated one) is supplied, role
    cardinalities are inferred from the extension: a leg is [Many] when
    the realizing attribute set has duplicate (non-NULL) values in the
    constraint's left relation — i.e. the entity participates in several
    relationship instances — and [One] otherwise. For a binary
    relationship the referencing side is always [One] (the foreign key is
    single-valued). The test compares {!Column_store.count_distinct}
    with {!Column_store.witness_count} on the table's memoized store, so
    it reads no tuple array. *)
