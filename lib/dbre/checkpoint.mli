(** Per-stage pipeline checkpoints.

    Each stage serializes its output artifact to
    [<dir>/<n>-<stage>.ckpt] as a single s-expression wrapped in
    [(checkpoint (version 2) (stage ...) (checksum ...) <payload>)] and
    a newline, in {!Relational.Sexp}'s canonical text (one space between
    list items, atoms quoted only when they must be). The writer streams
    the payload straight from the artifact through one fixed-size
    chunk, folding the checksum as it goes, then patches the
    fixed-width checksum digits in place: no tree is built and the file
    is never held whole. Table rows come from {!Table.rows} when the
    table holds a tuple array, and otherwise segment by segment from
    its column store ({!Column_store.iter_codes}), so writing a
    CSV-loaded input or a migrated relation never materializes it; the
    bytes are the same either way.

    The checksum is FNV-1a 64 over the payload's bytes, hashed on load
    exactly as read — a file truncated or edited into something still
    parseable reads as corrupt. So does a file re-formatted by hand
    (different whitespace or quoting), even when it parses to the same
    tree: only the canonical layout verifies. Writes are atomic (tmp
    file + rename); loads return [None] on a missing, corrupt,
    checksum-mismatched, re-formatted or version-mismatched file, so a
    resuming run silently recomputes the stage instead of failing.

    Partial artifacts: the Ind and Rhs payloads carry their result's
    [unverified]/[exhausted] fields, so a budget-tripped stage
    checkpoints exactly the work completed and a resumed pipeline
    continues from that group boundary (see {!Pipeline.run_checked}).

    The Translate checkpoint is a completion {e marker} only (the EER
    graph has no deserializer): it stores the rendered schema for human
    inspection, and resume always recomputes Translate from the
    Restruct artifact — acceptable because Translate is deterministic
    and cheap. *)

open Relational

type stage = Ind | Lhs | Rhs | Restruct | Translate

val stage_name : stage -> string
val path : dir:string -> stage -> string

val ensure_dir : string -> unit
(** Recursive [mkdir -p]; existing directories are fine. *)

val invalidate : dir:string -> unit
(** Delete every stage checkpoint in [dir]. Mutation makes all of them
    stale at once (each embeds verdicts over the old extension), so a
    refresh run must not resume from any of them. IO errors are
    swallowed: worst case a stale file survives and is overwritten by
    the re-run. *)

val write_ind : dir:string -> Database.t -> Ind_discovery.result -> unit
(** Conceptualized relations are stored {e with} their intersection
    extensions (read from [db]), so a resuming run can re-materialize
    them. Raises [Sys_error] on IO failure. *)

val load_ind : dir:string -> Database.t -> Ind_discovery.result option
(** On success, re-applies the conceptualized relations (schema and
    extension) to [db] via [Database.replace_table]. *)

val write_lhs : dir:string -> Lhs_discovery.result -> unit
val load_lhs : dir:string -> Lhs_discovery.result option
val write_rhs : dir:string -> Rhs_discovery.result -> unit
val load_rhs : dir:string -> Rhs_discovery.result option
val write_restruct : dir:string -> Restruct.result -> unit
val load_restruct : dir:string -> Restruct.result option

val write_translate : dir:string -> Translate.result -> unit
val translate_done : dir:string -> bool
(** Whether a valid Translate marker exists. *)
