(** Tiny s-expression codec used for pipeline checkpoints.

    Atoms containing whitespace, parens, quotes or backslashes are
    written quoted with C-style escapes; [to_string] and [of_string]
    round-trip arbitrary atom contents. *)

type t = Atom of string | List of t list

val atom : string -> t
val list : t list -> t

val add_atom : Buffer.t -> string -> unit
(** Append one atom under the quoting rule: bare unless it is empty or
    holds whitespace, a paren, a quote or a backslash. Streaming
    writers emit atoms through this, so their bytes are exactly what
    {!to_string} prints for the same tree. *)

val to_string : t -> string
(** The canonical text: atoms via {!add_atom}, list items separated by
    one space, no other whitespace. *)

exception Parse_error of string

val of_string : string -> t
(** Raises {!Parse_error} on malformed input or trailing garbage. *)

val of_substring : string -> pos:int -> len:int -> t
(** Parse the [len] bytes of the text starting at [pos], which must hold
    exactly one value (surrounding whitespace allowed). Raises
    {!Parse_error} like {!of_string}, [Invalid_argument] on a range
    outside the text. *)

val of_string_opt : string -> t option
