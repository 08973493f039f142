(** First-class extension sources.

    The paper assumes the extension [E] is simply given; in practice it
    arrives as CSV files, in-memory tables, or a connection to a live
    database. A {!t} abstracts where one relation's extension comes
    from, so the pipeline, the CLI and the analysis daemon all load
    through one seam ({!load}) instead of each hard-coding CSV files.

    Four shapes:
    - {!Csv_file} — a path, loaded by the chunked streaming
      {!Csv.load_file} (never whole-file resident on the sequential
      path, parallel chunk-split with a pool);
    - {!Csv_inline} — CSV text already in memory, loaded by {!Csv.load}
      (this is also how in-memory extensions travel over the daemon's
      wire protocol);
    - {!In_memory} — an already-built {!Table.t} (dictionary-encoded
      {!Column_store} and all), adopted as-is after a schema check;
    - {!Reader} — a pull-based chunk reader, fed to
      {!Csv.load_from_reader}. This is the seam where a live SQL
      connection plugs in later: anything that can stream CSV-shaped
      chunks (a [COPY TO STDOUT] cursor, a paginated result set) is a
      source without further changes here.

    Loading honors the same [mode]/[pool]/[supervise] controls as the
    CSV loaders, so every budget and quarantine behavior of the
    one-shot path applies to every source shape. *)

type t =
  | Csv_file of string  (** path to a CSV document *)
  | Csv_inline of string  (** CSV text *)
  | In_memory of Table.t  (** an extension already in columnar form *)
  | Reader of {
      name : string;  (** for [describe] and error messages *)
      connect : unit -> unit -> string option;
          (** [connect ()] opens a fresh chunk stream; the inner
              function yields chunks until [None] (EOF); a chunk must
              never be mutated once yielded. Each [load]
              calls [connect] once, so a source can be loaded more
              than once if its [connect] supports it. *)
    }

val csv_file : string -> t
val csv_inline : string -> t
val in_memory : Table.t -> t
val reader : name:string -> (unit -> unit -> string option) -> t

val of_strings : name:string -> string list -> t
(** A {!Reader} yielding the given chunks once — convenient for tests
    and for adapting any in-memory producer. *)

val describe : t -> string
(** ["csv-file:<path>"], ["csv-inline:<bytes>b"], ["in-memory:<rel>"],
    ["reader:<name>"]. *)

val load :
  ?header:bool ->
  ?mode:[ `Strict | `Quarantine ] ->
  ?pool:Domain_pool.t ->
  ?supervise:Supervise.t ->
  ?min_parallel_bytes:int ->
  Relation.t ->
  t ->
  (Table.t * Quarantine.report option, Error.t) result
(** Load [rel]'s extension from the source. CSV shapes behave exactly
    like the {!Csv} loaders they delegate to ([pool] parallelism
    applies to [Csv_file]/[Csv_inline]; [Reader] streams
    sequentially). [In_memory] checks that the table's relation has
    [rel]'s name and attributes (same names, same order) and returns
    it unchanged — code {!Error.Type_mismatch} on disagreement — so an
    adopted extension can never silently disagree with the schema the
    dictionary declared. *)
