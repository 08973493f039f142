(** Tables: a relation schema together with its extension.

    This is the engine behind the paper's counting primitives (§2):
    [||r[X]||] is {!count_distinct} and [||r_k[A_k] ⋈ r_l[A_l]||] is
    {!equijoin_distinct_count}. Following SQL [COUNT(DISTINCT …)]
    semantics, rows holding a NULL in any projected attribute are ignored
    by the distinct-counting operations; functional-dependency style
    grouping (which needs NULL = NULL) is provided separately by
    {!group_rows}. *)

type t

type ext = ..
(** Open slot for derived structures memoized against the extension
    (e.g. {!Column_store.t}). Mutations no longer clear the slot: a
    stashed structure compares its build version against {!version} and
    replays the mutation log ({!deltas_since}) to refresh itself
    incrementally — or rebuilds when the log has been trimmed. *)

type delta =
  | Rows_appended of Tuple.t array
      (** tuples appended, in insertion order (one {!insert} or one
          whole {!insert_many} batch) *)
  | Rows_deleted of int array * Tuple.t array
      (** ascending row indices {e in the numbering just before this
          deletion}, paired with the removed tuples — enough to patch
          value-level memos without re-reading the extension *)
(** One logged mutation. Each bumps {!version} by exactly one. *)

val create : Relation.t -> t
(** An empty table over the given schema. *)

val create_deferred : Relation.t -> size:int -> (unit -> Tuple.t array) -> t
(** A table of [size] rows whose tuple array is produced lazily by the
    thunk on the first {!rows} demand (columnar loaders keep tuples
    virtual; pipeline paths that only touch the column store never pay
    for them). The thunk must return exactly [size] tuples and must not
    re-enter this table. Forcing does not bump {!version}; the first
    {!insert} materializes the backing and behaves as usual from then
    on. *)

val of_rows : Relation.t -> Tuple.t array -> t
(** A table holding exactly these tuples, in this order, at version 0
    with an empty mutation log — the bulk constructor for a table built
    whole (a migrated relation, a checkpointed extension) rather than
    grown by {!insert}. The table takes the array: the caller must not
    modify it afterwards. Raises [Invalid_argument] on a tuple whose
    arity differs from the relation's. *)

val materialized : t -> bool
(** Has the tuple array been built (or was this table list-backed from
    the start)? [false] exactly while a deferred backing is still
    unforced — observability for laziness tests. *)

val with_schema : t -> Relation.t -> t
(** [with_schema t rel] is a view of [t] under [rel] — same backing
    storage, row cache and {!ext_cache} (no O(n) copy). [rel] must
    declare exactly [t]'s attribute list (constraint-only updates, e.g.
    {!Relation.add_unique}); raises [Invalid_argument] otherwise. The
    two views share state only up to the next insert into either. *)

val schema : t -> Relation.t
val cardinality : t -> int

val version : t -> int
(** Monotonic revision counter, bumped once per mutation ({!insert},
    one whole {!insert_many} batch, {!delete_rows}) — the cache key
    derived structures compare against, and the coordinate
    {!deltas_since} replays from. *)

val deltas_since : t -> int -> delta list option
(** The mutations applied since [version], oldest first — [Some []]
    when the table is already at that version, [None] when the log can
    no longer replay from there (the version predates the trimmed log,
    or never existed): the consumer must rebuild from the extension.
    The log is trimmed once its logged tuples exceed
    [max (cardinality t) 1024], bounding its memory at roughly one
    extra copy of the extension. *)

val ext_cache : t -> ext option
(** The memoized derived structure, if one has been stashed. The holder
    is responsible for freshness (compare {!version}, replay
    {!deltas_since}). *)

val set_ext_cache : t -> ext -> unit
(** Stash a derived structure; overwritten by later calls. *)

val clear_ext_cache : t -> unit
(** Drop the stashed structure — forces the next {!ext_cache} consumer
    to rebuild from scratch (the pre-delta-maintenance behavior;
    cold-cache baselines and tests). *)

val insert : t -> Value.t list -> unit
(** Append one tuple. Raises [Invalid_argument] on an arity mismatch. No
    constraint checking happens on insert — legacy extensions are allowed
    to violate their dictionary constraints; use {!check_constraints}. *)

val insert_many : t -> Value.t list list -> unit
(** Append a whole batch transactionally: every row's arity is
    validated before anything is touched (an arity error leaves the
    table unchanged), and the batch costs one version bump and one
    delta-log entry, not one per row. *)

val insert_tuple : t -> Tuple.t -> unit

val delete_rows : t -> int list -> unit
(** Remove the rows at the given indices (in the current {!rows}
    numbering; duplicates are collapsed). Raises [Invalid_argument] on
    an out-of-range index, leaving the table unchanged. One version
    bump and one delta-log entry per call; the empty list is a no-op.
    A deferred backing is materialized first. *)

val rows : t -> Tuple.t array
(** All tuples in insertion order. The array is cached and shared: do not
    mutate it. *)

val to_lists : t -> Value.t list list

val positions : t -> string list -> int array
(** Column positions for the given attribute names; raises
    [Invalid_argument] on an unknown attribute. *)

val value : t -> Tuple.t -> string -> Value.t
(** [value t tup a] is the component of [tup] for attribute [a]. *)

val project_distinct : t -> string list -> Value.t list list
(** Distinct non-null projections of the table on the given attributes
    (each inner list follows the order given). *)

val count_distinct : t -> string list -> int
(** [||r[X]||] — the paper's [SELECT COUNT(DISTINCT X) FROM R]. *)

val distinct_table : t -> string list -> (Value.t list, unit) Hashtbl.t
(** The set of distinct non-null projections, as a hash table keyed by
    projected value lists — reusable across several intersection counts. *)

val equijoin_distinct_count : t -> string list -> t -> string list -> int
(** [||r1[x1] ⋈ r2[x2]||] — the number of distinct (non-null) values
    common to both projections. [x1] and [x2] must have the same width. *)

val group_rows : t -> string list -> (Value.t list, int list) Hashtbl.t
(** Group row indices by their projection on the given attributes, with
    NULL treated as an ordinary value (the grouping an FD check needs). *)

val select : t -> (Tuple.t -> bool) -> Tuple.t list

val check_unique : t -> string list -> bool
(** Does the extension satisfy uniqueness of the given attribute set?
    (NULL-holding rows are skipped, as in SQL UNIQUE.) *)

val check_not_null : t -> string -> bool

val check_constraints : t -> (unit, string list) result
(** Verify every declared unique and not-null constraint against the
    extension; [Error msgs] lists each violated constraint. *)

val pp : ?max_rows:int -> Format.formatter -> t -> unit
(** Debug rendering: header plus at most [max_rows] rows (default 20). *)
