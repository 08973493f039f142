(* Streaming columnar ingest: the chunk-fed scanner and the one-pass
   loader are pinned against the seed row-at-a-time loader
   (Csv.load_reference), which is kept verbatim as the equivalence
   oracle. Randomized docs are generated from a fixed-seed LCG so every
   run replays the same corpus. *)

open Relational
open Helpers

(* -- deterministic pseudo-random stream ------------------------------- *)

let lcg = ref 0

let rand m =
  lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
  !lcg mod m

let reset_lcg () = lcg := 987654321

let rel3 =
  Relation.make "r"
    ~domains:[ ("a", Domain.Int); ("b", Domain.String); ("c", Domain.Float) ]
    [ "a"; "b"; "c"; "d" ]

(* Besides plain cells, the pool holds every Int spelling the in-place
   [-]digits parser must hand over to [Domain.parse_opt] (sign, leading
   zeros, a bare minus, hex, underscores, the int bounds, a 19-digit
   value that still fits) and quoted cells with doubled quotes. *)
let cellpool =
  [|
    "1"; "2"; "33"; "-7"; "x"; "hello"; ""; "3.5"; "true"; "2021-01-01";
    "a,b"; "q\"q"; "nl\nnl"; "bad"; "9999999999999999999"; "+5"; "007";
    "-0"; "-"; "0x1F"; "1_000"; string_of_int max_int; string_of_int min_int;
    "1000000000000000000"; "\""; "say \"hi\", ok"; "\"\"\"";
  |]

let gen_cell () = cellpool.(rand (Array.length cellpool))

let gen_csv ~header () =
  let b = Buffer.create 256 in
  let cols =
    match rand 5 with
    | 0 -> [ "a"; "b"; "c"; "d" ]
    | 1 -> [ "d"; "c"; "b"; "a" ]
    | 2 -> [ "a"; "b"; "c" ] (* missing d *)
    | 3 -> [ "a"; "b"; "c"; "d"; "e" ] (* undeclared e *)
    | _ -> [ "b"; "a"; "d"; "c" ]
  in
  if header then begin
    Buffer.add_string b (String.concat "," cols);
    Buffer.add_string b (if rand 2 = 0 then "\n" else "\r\n")
  end;
  let nrows = rand 8 in
  for _ = 1 to nrows do
    let w =
      if rand 10 = 0 then List.length cols + 1 else List.length cols
    in
    let cells = List.init w (fun _ -> gen_cell ()) in
    let line = Csv.render [ cells ] in
    (* render appends '\n'; strip it so we can vary the ending *)
    Buffer.add_string b (String.sub line 0 (String.length line - 1));
    Buffer.add_string b (match rand 3 with 0 -> "\r\n" | _ -> "\n")
  done;
  if rand 8 = 0 then Buffer.add_string b "\"torn";
  Buffer.contents b

(* canonical rendering of a loader result: table contents plus the
   quarantine report, or the typed error *)
let show = function
  | Ok (t, rep) ->
      Printf.sprintf "OK rows=%s report=%s"
        (String.concat ";"
           (List.map
              (fun row ->
                String.concat "," (List.map Value.to_string row))
              (Table.to_lists t)))
        (match rep with
        | None -> "none"
        | Some rep -> Quarantine.to_string rep)
  | Error e -> "ERR " ^ Error.to_string e

(* a reader handing out [text] in [size]-byte chunks *)
let chunk_reader size text =
  let pos = ref 0 in
  fun () ->
    if !pos >= String.length text then None
    else begin
      let n = min size (String.length text - !pos) in
      let chunk = String.sub text !pos n in
      pos := !pos + n;
      Some chunk
    end

(* -- scanner: chunk boundaries are invisible -------------------------- *)

let scan_whole text =
  Csv.fold ~f:(fun acc r -> r :: acc) ~init:[] text

let scan_chunked size text =
  Csv.fold_reader ~f:(fun acc r -> r :: acc) ~init:[] (chunk_reader size text)

let show_scan (rows, errs) =
  String.concat ";"
    (List.rev_map
       (fun r ->
         Printf.sprintf "%d@%d:%s" r.Csv.index r.Csv.line
           (String.concat "," (Array.to_list r.Csv.fields)))
       rows)
  ^ "/"
  ^ String.concat ";"
      (List.map
         (fun e ->
           Printf.sprintf "%d@%d:%d:%s" e.Csv.se_row e.Csv.se_line
             e.Csv.se_col e.Csv.se_message)
         errs)

let test_scanner_chunking () =
  reset_lcg ();
  for _ = 1 to 300 do
    let text = gen_csv ~header:(rand 2 = 0) () in
    let whole = show_scan (scan_whole text) in
    List.iter
      (fun size ->
        Alcotest.(check string)
          (Printf.sprintf "chunk=%d of %S" size text)
          whole
          (show_scan (scan_chunked size text)))
      [ 1; 2; 3; 7; 64 ]
  done

(* -- loader: chunk boundaries are invisible ----------------------------- *)

(* fields that straddle chunks, and rows whose earlier fields slice an
   earlier chunk, must type and intern exactly as a whole-string load *)
let test_loader_chunking () =
  reset_lcg ();
  for _ = 1 to 300 do
    let header = rand 2 = 0 in
    let text = gen_csv ~header () in
    List.iter
      (fun mode ->
        let reference = show (Csv.load_reference ~header ~mode rel3 text) in
        List.iter
          (fun size ->
            Alcotest.(check string)
              (Printf.sprintf "chunk=%d of %S" size text)
              reference
              (show
                 (Csv.load_from_reader ~header ~mode rel3
                    (chunk_reader size text))))
          [ 1; 2; 3; 7; 64 ])
      [ `Strict; `Quarantine ]
  done

(* -- loader: streaming = reference, sequential and parallel ----------- *)

let pool3 = lazy (Domain_pool.get 3)

let test_loader_equivalence () =
  reset_lcg ();
  for _ = 1 to 1500 do
    let header = rand 2 = 0 in
    let text = gen_csv ~header () in
    List.iter
      (fun mode ->
        let reference = show (Csv.load_reference ~header ~mode rel3 text) in
        Alcotest.(check string)
          (Printf.sprintf "sequential %S" text)
          reference
          (show (Csv.load ~header ~mode rel3 text)))
      [ `Strict; `Quarantine ]
  done

let test_parallel_equivalence () =
  reset_lcg ();
  let pool = Lazy.force pool3 in
  for _ = 1 to 400 do
    let header = rand 2 = 0 in
    let text = gen_csv ~header () in
    List.iter
      (fun mode ->
        let reference = show (Csv.load_reference ~header ~mode rel3 text) in
        Alcotest.(check string)
          (Printf.sprintf "parallel %S" text)
          reference
          (show
             (Csv.load ~header ~mode ~pool ~min_parallel_bytes:1 rel3 text)))
      [ `Strict; `Quarantine ]
  done

(* -- dictionaries: codes and first-occurrence order ------------------- *)

let check_store_eq msg t1 t2 =
  let s1 = Column_store.of_table t1 and s2 = Column_store.of_table t2 in
  List.iter
    (fun a ->
      let c1 = Column_store.column s1 a and c2 = Column_store.column s2 a in
      Alcotest.(check bool)
        (Printf.sprintf "%s: dict of %s" msg a)
        true
        (Column_store.column_dict c1 = Column_store.column_dict c2);
      Alcotest.(check bool)
        (Printf.sprintf "%s: codes of %s" msg a)
        true
        (Column_store.column_codes c1 = Column_store.column_codes c2))
    (Table.schema t1).Relation.attrs

let test_dictionary_equivalence () =
  reset_lcg ();
  for _ = 1 to 200 do
    let text = gen_csv ~header:true () in
    match
      ( Csv.load ~mode:`Quarantine rel3 text,
        Csv.load_reference ~mode:`Quarantine rel3 text )
    with
    | Ok (t1, _), Ok (t2, _) -> check_store_eq "random doc" t1 t2
    | _ -> Alcotest.fail "quarantine load failed"
  done

(* -- quarantined rows leave no trace in the dictionaries --------------- *)

let ghosts = [ vi 424242; vs "ghost"; Value.Float 0.125; vs "phantom" ]

(* good rows around three rejected ones: an ill-typed Int first (so
   nothing is typed before it), an ill-typed Float after typed Int and
   String cells, and a wrong-width row. Every rejected row carries a
   value no surviving row has. *)
let ghost_csv () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "a,b,c,d\n";
  for i = 0 to 299 do
    Buffer.add_string b
      (match i with
      | 50 -> "zz,ghost,0.125,phantom\n"
      | 150 -> "424242,ghost,not-a-float,phantom\n"
      | 250 -> "424242,ghost,0.125,phantom,extra\n"
      | _ -> Printf.sprintf "%d,name-%d,%d.5,%d\n" (i mod 17) (i mod 5) i i)
  done;
  Buffer.contents b

let test_quarantine_leaves_no_codes () =
  let text = ghost_csv () in
  List.iter
    (fun n ->
      let pool = if n = 1 then None else Some (Lazy.force pool3) in
      match Csv.load ~mode:`Quarantine ?pool ~min_parallel_bytes:1 rel3 text with
      | Ok (t, Some rep) ->
          Alcotest.(check int)
            (Printf.sprintf "domains=%d: three rows quarantined" n)
            3 (List.length rep.Quarantine.entries);
          let st = Column_store.of_table t in
          List.iter
            (fun a ->
              let dict = Column_store.column_dict (Column_store.column st a) in
              List.iter
                (fun g ->
                  Alcotest.(check bool)
                    (Printf.sprintf "domains=%d: %s absent from %s" n
                       (Value.to_string g) a)
                    false
                    (Array.exists (fun v -> Value.equal v g) dict))
                ghosts)
            rel3.Relation.attrs
      | Ok (_, None) -> Alcotest.fail "dirty doc produced no report"
      | Error e -> Alcotest.failf "quarantine load failed: %s" (Error.to_string e))
    [ 1; 3 ]

(* -- memo bypass: >32768 distinct cells in one memoized column -------- *)

(* Float cells go through the raw-bytes memo (Int and String cells
   intern straight from the slice and never touch it) *)
let bypass_rel =
  Relation.make "wide"
    ~domains:[ ("id", Domain.Int); ("tag", Domain.String) ]
    [ "id"; "tag" ]

let float_rel =
  Relation.make "prices"
    ~domains:[ ("price", Domain.Float); ("tag", Domain.String) ]
    [ "price"; "tag" ]

let bypass_csv ~dirty rows =
  let b = Buffer.create (rows * 14) in
  Buffer.add_string b "price,tag\r\n";
  for i = 0 to rows - 1 do
    (* all-distinct prices force the adaptive memo to drop at 32768;
       the dirty variant plants type errors on both sides of the drop *)
    if dirty && i mod 977 = 0 then Buffer.add_string b "oops"
    else Buffer.add_string b (Printf.sprintf "%d.25" i);
    Buffer.add_string b (if i mod 3 = 0 then ",x\r\n" else ",y\r\n")
  done;
  Buffer.contents b

let test_memo_bypass () =
  let rows = 40_000 in
  let dirty = bypass_csv ~dirty:true rows in
  let pool = Lazy.force pool3 in
  List.iter
    (fun mode ->
      let reference = show (Csv.load_reference ~mode float_rel dirty) in
      Alcotest.(check string)
        "dirty, sequential" reference
        (show (Csv.load ~mode float_rel dirty));
      Alcotest.(check string)
        "dirty, parallel" reference
        (show (Csv.load ~mode ~pool ~min_parallel_bytes:1 float_rel dirty)))
    [ `Strict; `Quarantine ];
  let clean = bypass_csv ~dirty:false rows in
  match (Csv.load float_rel clean, Csv.load_reference float_rel clean) with
  | Ok (t1, _), Ok (t2, _) -> check_store_eq "bypass doc" t1 t2
  | _ -> Alcotest.fail "clean bypass load failed"

(* -- laziness --------------------------------------------------------- *)

let test_lazy_rows () =
  let csv = "id,tag\r\n1,x\r\n2,y\r\n3,x\r\n" in
  match Csv.load bypass_rel csv with
  | Ok (t, _) ->
      Alcotest.(check bool)
        "rows deferred after load" false (Table.materialized t);
      Alcotest.(check int)
        "cardinality without materializing" 3 (Table.cardinality t);
      Alcotest.(check bool)
        "still deferred after cardinality" false (Table.materialized t);
      let rows = Table.rows t in
      Alcotest.(check int) "materialized count" 3 (Array.length rows);
      Alcotest.(check bool)
        "materialized after rows" true (Table.materialized t);
      Alcotest.(check (list (list value)))
        "contents"
        [
          [ vi 1; vs "x" ]; [ vi 2; vs "y" ]; [ vi 3; vs "x" ];
        ]
        (Table.to_lists t)
  | Error e -> Alcotest.failf "load failed: %s" (Error.to_string e)

(* -- golden edge cases ------------------------------------------------ *)

let test_golden_edges () =
  (* quoting: embedded comma, doubled quote, quoted newline, CRLF *)
  (match
     Csv.load bypass_rel "id,tag\r\n1,\"a,b\"\r\n2,\"say \"\"hi\"\"\"\n3,\"l1\nl2\"\r\n"
   with
  | Ok (t, None) ->
      Alcotest.(check (list (list value)))
        "quoted fields"
        [
          [ vi 1; vs "a,b" ];
          [ vi 2; vs "say \"hi\"" ];
          [ vi 3; vs "l1\nl2" ];
        ]
        (Table.to_lists t)
  | _ -> Alcotest.fail "quoting doc should load cleanly");
  (* header reorder *)
  (match Csv.load bypass_rel "tag,id\r\nhello,7\n" with
  | Ok (t, None) ->
      Alcotest.(check (list (list value)))
        "reordered header" [ [ vi 7; vs "hello" ] ] (Table.to_lists t)
  | _ -> Alcotest.fail "reordered doc should load cleanly");
  (* strict arity error carries row, line and widths *)
  (match Csv.load bypass_rel "id,tag\n1,x\n2\n" with
  | Error e ->
      Alcotest.(check string)
        "arity code" "csv-arity"
        (Error.code_to_string e.Error.code);
      check_contains "arity message" ~sub:"width 1, expected 2"
        e.Error.message
  | Ok _ -> Alcotest.fail "short row must fail in strict mode");
  (* strict type error names the cell and the domain *)
  (match Csv.load bypass_rel "id,tag\nzz,x\n" with
  | Error e ->
      Alcotest.(check string)
        "type code" "type-mismatch"
        (Error.code_to_string e.Error.code);
      check_contains "type message" ~sub:"\"zz\" is not a" e.Error.message
  | Ok _ -> Alcotest.fail "bad int must fail in strict mode");
  (* degenerate documents agree with the reference loader *)
  List.iter
    (fun text ->
      List.iter
        (fun mode ->
          Alcotest.(check string)
            (Printf.sprintf "degenerate %S" text)
            (show (Csv.load_reference ~mode bypass_rel text))
            (show (Csv.load ~mode bypass_rel text)))
        [ `Strict; `Quarantine ])
    [ ""; "id,tag\n"; "id,tag"; "\"torn"; "id,tag\n1,x\n\"torn" ]

(* -- load_file -------------------------------------------------------- *)

let test_load_file () =
  let t = table "wide" [ "id"; "tag" ] [ [ vi 1; vs "x" ]; [ vi 2; vs "y" ] ] in
  let csv = Csv.dump_table t in
  let path = Filename.temp_file "dbre_ingest" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc csv;
      close_out oc;
      match Csv.load_file bypass_rel path with
      | Ok (got, None) ->
          Alcotest.(check string)
            "file roundtrip"
            (show (Csv.load bypass_rel csv))
            (show (Ok (got, None)))
      | Ok (_, Some _) -> Alcotest.fail "clean file produced a report"
      | Error e -> Alcotest.failf "load_file failed: %s" (Error.to_string e));
  match Csv.load_file bypass_rel (path ^ ".does-not-exist") with
  | Error e ->
      Alcotest.(check string)
        "missing file code" "io-error"
        (Error.code_to_string e.Error.code)
  | Ok _ -> Alcotest.fail "missing file must be an Io_error"

(* a file read in several chunks (its size exceeds one 1 MiB chunk, so
   rows and quoted fields straddle a chunk boundary), and a source whose
   reported size is 0 although it has content (a procfs file): both
   must load exactly as [Csv.load] of their full text *)
let test_load_file_to_eof () =
  let big = Buffer.create (1 lsl 21) in
  Buffer.add_string big "id,tag\n";
  for i = 0 to 79_999 do
    Buffer.add_string big
      (Printf.sprintf "%d,%s\n" (i mod 1000)
         (if i mod 7 = 0 then Printf.sprintf "\"q,%d\"" i else "tag"))
  done;
  let csv = Buffer.contents big in
  let path = Filename.temp_file "dbre_ingest" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc csv);
      Alcotest.(check string)
        "multi-chunk file"
        (show (Csv.load bypass_rel csv))
        (show (Csv.load_file bypass_rel path)));
  let proc = "/proc/self/cmdline" in
  if Sys.file_exists proc then begin
    let text = In_channel.with_open_bin proc In_channel.input_all in
    Alcotest.(check bool) "procfs source has content" true (text <> "");
    let one = Relation.make "cmd" ~domains:[ ("arg", Domain.String) ] [ "arg" ] in
    Alcotest.(check string)
      "size-0 source read to EOF"
      (show (Csv.load ~header:false ~mode:`Quarantine one text))
      (show (Csv.load_file ~header:false ~mode:`Quarantine one proc))
  end

let suite =
  [
    Alcotest.test_case "chunked scan = whole scan" `Quick
      test_scanner_chunking;
    Alcotest.test_case "chunked load = reference (randomized)" `Quick
      test_loader_chunking;
    Alcotest.test_case "streaming = reference (randomized)" `Quick
      test_loader_equivalence;
    Alcotest.test_case "parallel = reference (randomized)" `Quick
      test_parallel_equivalence;
    Alcotest.test_case "dictionaries match the reference encode" `Quick
      test_dictionary_equivalence;
    Alcotest.test_case "quarantined values get no codes" `Quick
      test_quarantine_leaves_no_codes;
    Alcotest.test_case "memo bypass at high cardinality" `Quick
      test_memo_bypass;
    Alcotest.test_case "rows materialize lazily" `Quick test_lazy_rows;
    Alcotest.test_case "golden edge cases" `Quick test_golden_edges;
    Alcotest.test_case "load_file roundtrip and Io_error" `Quick
      test_load_file;
    Alcotest.test_case "load_file reads to EOF" `Quick test_load_file_to_eof;
  ]
