type t = Atom of string | List of t list

let atom s = Atom s
let list l = List l

(* The one quoting rule: an atom is written bare unless it is empty or
   holds whitespace, a paren, a quote or a backslash; quoted atoms
   escape those with C-style escapes. Index loops, no closures: the
   checkpoint writer runs this once per table cell. *)
let must_quote s =
  let n = String.length s in
  let rec go i =
    i < n
    && (match String.unsafe_get s i with
       | ' ' | '(' | ')' | '"' | '\n' | '\t' | '\r' | '\\' -> true
       | _ -> go (i + 1))
  in
  n = 0 || go 0

let add_quoted buf s =
  Buffer.add_char buf '"';
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\t' -> Buffer.add_string buf "\\t"
    | '\r' -> Buffer.add_string buf "\\r"
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

let add_atom buf s =
  if must_quote s then add_quoted buf s else Buffer.add_string buf s

let rec add buf = function
  | Atom s -> add_atom buf s
  | List l ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ' ';
          add buf x)
        l;
      Buffer.add_char buf ')'

let to_string t =
  let buf = Buffer.create 256 in
  add buf t;
  Buffer.contents buf

exception Parse_error of string

let of_substring text ~pos:start ~len =
  if start < 0 || len < 0 || start + len > String.length text then
    invalid_arg "Sexp.of_substring";
  let n = start + len in
  let pos = ref start in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let quoted_atom () =
    incr pos;
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Parse_error "unterminated string")
      else
        match text.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            if !pos + 1 >= n then raise (Parse_error "dangling escape");
            (match text.[!pos + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | c -> Buffer.add_char buf c);
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Atom (Buffer.contents buf)
  in
  let bare_atom () =
    let start = !pos in
    while
      !pos < n
      &&
      match text.[!pos] with
      | ' ' | '\n' | '\t' | '\r' | '(' | ')' | '"' -> false
      | _ -> true
    do
      incr pos
    done;
    Atom (String.sub text start (!pos - start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> raise (Parse_error "unexpected end of input")
    | Some '(' ->
        incr pos;
        let items = ref [] in
        let rec loop () =
          skip_ws ();
          match peek () with
          | None -> raise (Parse_error "unterminated list")
          | Some ')' -> incr pos
          | Some _ ->
              items := value () :: !items;
              loop ()
        in
        loop ();
        List (List.rev !items)
    | Some ')' -> raise (Parse_error "unexpected ')'")
    | Some '"' -> quoted_atom ()
    | Some _ -> bare_atom ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then raise (Parse_error "trailing garbage") else v

let of_string text = of_substring text ~pos:0 ~len:(String.length text)

let of_string_opt text =
  match of_string text with v -> Some v | exception Parse_error _ -> None
