(* The benchmark's workload runner: one workload, one process, inputs
   read from a directory gen.exe wrote (this process never generates).

   bench.exe --workload NAME --data DIR --seconds S --trace 0|1 --seed N
             [--pre-setup-s X] [--setup-scale F]
             [--nproc N] [--commit SHA] [--out FILE]
   bench.exe --reference --workload analyze-wide-ooc --data DIR
   bench.exe --calibrate

   Set-up (timed as setup_s together with what run.py measured around
   generation, scaled to a nominal host speed) is followed by a closed
   loop — one client, the next job or cycle starts when the previous one
   returned — for [--seconds]. Correctness checks run outside every
   timed region. The last line of stdout is the result object; [--out]
   also receives it with the host, the sizes and (traced) every span.

   With [--trace 1] the loop alternates untraced and traced operations:
   traced ones record spans around the public calls ([Job.database] /
   [Job.verify] / [Job.refresh] with the progress tap, [Report.artifacts],
   [Checkpoint], [Table] mutation, the [Client] requests) and the
   per-layer metrics come from them; the untraced ones give the base of
   [trace.overhead_ratio]. *)

open Relational
module W = Workloads
module T = Trace
module Job = Dbre.Job
module Job_spec = Dbre.Job_spec
module Pipeline = Dbre.Pipeline
module Client = Dbre_serve.Client

let now = T.now

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench.exe: " ^ msg);
      exit 1)
    fmt

(* ---- statistics ---- *)

let sorted l = List.sort Float.compare l

let median l =
  match sorted l with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest whole percentile that still has at least ten samples
   beyond it, with its value (nearest rank); [None] below 11 samples. *)
let tail l =
  let n = List.length l in
  if n < 11 then None
  else
    let a = Array.of_list (sorted l) in
    let rec go p =
      let rank = int_of_float (Float.ceil (float_of_int (p * n) /. 100.)) in
      if p <= 50 then None
      else if n - rank >= 10 then Some (p, a.(max 0 (rank - 1)))
      else go (p - 1)
    in
    go 99

(* ---- accounting: every operation and every correctness check ---- *)

let attempted = ref 0
let failed = ref 0
let failures = ref []

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    failures := what :: !failures;
    prerr_endline ("bench.exe: check failed: " ^ what)
  end

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_lines
    |> List.find_opt (String.starts_with ~prefix:"VmHWM:")
  in
  match line with
  | None -> nan
  | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)

(* Host-speed calibration. On a shared host the CPU's speed changes in
   stretches of seconds to minutes (a fixed loop runs at 1.0x to 1.8x its
   best time), which moves every wall time of a run together. So each
   untraced operation is also timed relative to a fixed calibration task
   run right before and right after it; the ratio cancels the host's speed
   at that moment and is the steady latency figure (wall times are kept
   for information). The task fills a small hash table and sorts an array
   (about 10 ms) and calls nothing in the program under test. It shares
   the process's GC with the program, though: major-GC work an operation
   still owes is paid in the next slices. So the calibration always
   starts from a settled heap ([settled_calibration]): the operation's
   result is dropped and an untimed [Gc.full_major] pays that debt first,
   and a program that allocates more cannot slow the task next to it. *)
let calibration_task () =
  let t0 = now () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 100_003)) i
  done;
  let a = Array.init 20_000 (fun i -> i * 7919 mod 100_003) in
  Array.sort Int.compare a;
  ignore (Sys.opaque_identity (h, a));
  now () -. t0

(* The operation's domain count: an operation on two domains runs on both
   CPUs, so the task runs on as many domains at once and their times are
   averaged. *)
let calibration_domains = ref 1

let calibration () =
  let others =
    List.init (!calibration_domains - 1) (fun _ -> Stdlib.Domain.spawn calibration_task)
  in
  let times = calibration_task () :: List.map Stdlib.Domain.join others in
  List.fold_left ( +. ) 0. times /. float_of_int (List.length times)

let settled_calibration () =
  Gc.full_major ();
  calibration ()

let last_calibration = ref None
let relative = ref []

(* [f ()] timed in wall seconds, with its calibration ratio recorded.
   [k] receives the wall time and the value and runs the checks, outside
   the timed region; the value is dead once it returns, before the
   calibration that follows the operation. *)
let calibrated f k =
  let before =
    match !last_calibration with Some c -> c | None -> settled_calibration ()
  in
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  let kept = k dt v in
  let after = settled_calibration () in
  last_calibration := Some after;
  relative := (dt /. ((before +. after) /. 2.)) :: !relative;
  kept

(* bench.exe --calibrate: the calibration task's median time in a fresh
   process, on one domain. run.py takes it around its set-up phases and
   reports set-up time at a nominal host speed. *)
let calibrate_only () =
  Printf.printf "%.9f\n" (median (List.init 15 (fun _ -> calibration_task ())))

let digest arts =
  Digest.to_hex
    (Digest.string (String.concat "\000" (List.concat_map (fun (k, v) -> [ k; v ]) arts)))

let dir_bytes dir =
  match Sys.readdir dir with
  | files ->
      Array.fold_left
        (fun acc f ->
          match Unix.stat (Filename.concat dir f) with
          | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
          | _ | (exception Unix.Unix_error _) -> acc)
        0 files
  | exception Sys_error _ -> 0

(* The elicited IND set equals the planted one and F contains every
   planted FD (compared attribute by attribute on the right). *)
let truth_holds (truth : Workload.Gen_schema.ground_truth) (r : Pipeline.result) =
  let inds l = List.sort_uniq String.compare (List.map Deps.Ind.to_string l) in
  let fds l =
    List.sort_uniq String.compare
      (List.map Deps.Fd.to_string (List.concat_map Deps.Fd.split_rhs l))
  in
  let found = fds r.Pipeline.rhs_result.Dbre.Rhs_discovery.fds in
  inds r.Pipeline.ind_result.Dbre.Ind_discovery.inds
  = inds truth.Workload.Gen_schema.planted_inds
  && List.for_all (fun f -> List.mem f found) (fds truth.Workload.Gen_schema.planted_fds)

let spec_of ?checkpoint_dir ~data_dir ~engine ~migrate dir =
  match
    Job_spec.of_args ~label:(Filename.basename dir) ~ddl:(W.ddl_path dir)
      ~data_dir ~programs_dir:(W.programs_dir dir) ~migrate_data:migrate
      ?checkpoint_dir ()
  with
  | Ok s -> { s with Job_spec.engine }
  | Error e -> fail "spec: %s" e

(* ---- per-layer metrics ---- *)

(* Every per-layer metric, in BENCHMARK.json order. A layer a workload
   does not exercise reads 0. *)
let per_layer =
  [
    ("csv.load_s", "s"); ("csv.mb_per_s", "MB/s"); ("csv.alloc_mw", "Mw");
    ("csv.heap_mw", "Mw"); ("extract.s", "s"); ("extract.equijoins", "count");
    ("ind.s", "s"); ("ind.probes", "count"); ("ind.alloc_mw", "Mw");
    ("lhs.s", "s"); ("rhs.s", "s"); ("rhs.candidates", "count");
    ("rhs.rhs_tested", "count"); ("rhs.fd_yield", "ratio");
    ("rhs.alloc_mw", "Mw"); ("pool.batches", "count");
    ("pool.lost_workers", "count"); ("ooc.spill_writes", "count");
    ("ooc.map_loads", "count"); ("ooc.evictions", "count");
    ("ooc.zone_skip_ratio", "ratio"); ("ooc.ind_short_circuits", "count");
    ("ooc.spill_bytes_per_input_byte", "ratio");
    ("store.materialized_tables", "count"); ("restruct.s", "s");
    ("restruct.alloc_mw", "Mw"); ("translate.s", "s");
    ("oracle.events", "count"); ("checkpoint.write_s", "s");
    ("checkpoint.bytes_per_input_byte", "ratio"); ("report.s", "s");
    ("table.mutate_s", "s"); ("table.materialized_after_mutate", "count");
    ("delta.s", "s"); ("delta.absorbed", "count"); ("delta.rebuilt", "count");
    ("delta.rows_applied", "count"); ("reverify.ind_s", "s");
    ("reverify.rhs_s", "s"); ("serve.ping_ms", "ms"); ("serve.queue_ms", "ms");
    ("serve.refresh_overhead_ms", "ms"); ("gc.minor_collections", "count");
    ("gc.major_collections", "count"); ("trace.coverage", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

(* one traced operation's layer values; medians across operations are
   reported *)
let layer_samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let sample name v =
  Hashtbl.replace layer_samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt layer_samples name))

let mw w = w /. 1e6

let stage_key = function
  | Error.Extract -> "extract"
  | Error.Ind_discovery -> "ind"
  | Error.Lhs_discovery -> "lhs"
  | Error.Rhs_discovery -> "rhs"
  | Error.Restruct -> "restruct"
  | Error.Translate -> "translate"
  | Error.Load -> "load"

(* The progress tap as a span recorder: loads and stages become children
   of [root]. *)
let span_tap root =
  let open_spans = Hashtbl.create 16 in
  let start key = Hashtbl.replace open_spans key (T.open_ ~parent:root key) in
  let stop key =
    Option.iter T.close (Hashtbl.find_opt open_spans key)
  in
  let tap = function
    | Job.Loading rel -> start ("load:" ^ rel)
    | Job.Loaded (rel, _) -> stop ("load:" ^ rel)
    | Job.Stage (Pipeline.Stage_started s) -> start (stage_key s)
    | Job.Stage
        ( Pipeline.Stage_finished s | Pipeline.Stage_restored s
        | Pipeline.Stage_failed (s, _) ) ->
        stop (stage_key s)
  in
  (tap, open_spans)

(* Checkpoint writes happen inside each stage's span. They are timed by
   replaying the public [Checkpoint] writers on the operation's own
   artifacts into a scratch directory right after it, and attached as
   children of the stage spans, so stage self time excludes them. The
   replayed files are then removed with [Checkpoint.invalidate], which
   times the invalidation a refresh makes of a full checkpoint
   directory. Returns the write and the invalidation seconds. *)
let replay_checkpoints ~dir db (r : Pipeline.result) spans =
  W.rm_rf dir;
  Dbre.Checkpoint.ensure_dir dir;
  let time key f =
    let t0 = now () in
    f ();
    let d = now () -. t0 in
    (* a child cannot outlast its parent: replays of sub-millisecond
       writes can read a little longer than the stage that made them *)
    Option.iter
      (fun parent ->
        T.attach ~parent "checkpoint.write" ~dur:(Float.min d (T.dur parent)))
      (Hashtbl.find_opt spans key);
    d
  in
  let module C = Dbre.Checkpoint in
  let total =
    time "ind" (fun () -> C.write_ind ~dir db r.Pipeline.ind_result)
    +. time "lhs" (fun () -> C.write_lhs ~dir r.Pipeline.lhs_result)
    +. time "rhs" (fun () -> C.write_rhs ~dir r.Pipeline.rhs_result)
    +. time "restruct" (fun () -> C.write_restruct ~dir r.Pipeline.restruct_result)
    +. time "translate" (fun () -> C.write_translate ~dir r.Pipeline.translate_result)
  in
  let t0 = now () in
  C.invalidate ~dir;
  let invalidate = now () -. t0 in
  W.rm_rf dir;
  (total, invalidate)

(* Layer values every verified operation has: stage self times, the
   stages' work counts and allocation, the oracle. *)
let sample_stages ~refresh spans (r : Pipeline.result) =
  let self key =
    match Hashtbl.find_opt spans key with Some s -> T.self_time s | None -> 0.
  in
  let alloc key =
    match Hashtbl.find_opt spans key with Some s -> mw s.T.alloc_w | None -> 0.
  in
  let rhs = r.Pipeline.rhs_result in
  let tested =
    List.fold_left
      (fun acc s -> acc + List.length s.Dbre.Rhs_discovery.pruned_rhs)
      0 rhs.Dbre.Rhs_discovery.steps
  in
  let found =
    List.fold_left
      (fun acc f -> acc + List.length f.Deps.Fd.rhs)
      0 rhs.Dbre.Rhs_discovery.fds
  in
  sample "extract.s" (self "extract");
  sample "extract.equijoins" (float_of_int (List.length r.Pipeline.equijoins));
  sample "ind.s" (self "ind");
  sample "ind.probes"
    (float_of_int (List.length r.Pipeline.ind_result.Dbre.Ind_discovery.steps));
  sample "ind.alloc_mw" (alloc "ind");
  sample "lhs.s" (self "lhs");
  sample "rhs.s" (self "rhs");
  sample "rhs.candidates" (float_of_int (List.length rhs.Dbre.Rhs_discovery.steps));
  sample "rhs.rhs_tested" (float_of_int tested);
  sample "rhs.fd_yield"
    (if tested = 0 then 0. else float_of_int found /. float_of_int tested);
  sample "rhs.alloc_mw" (alloc "rhs");
  sample "restruct.s" (self "restruct");
  sample "restruct.alloc_mw" (alloc "restruct");
  sample "translate.s" (self "translate");
  sample "oracle.events" (float_of_int (List.length r.Pipeline.events));
  if refresh then begin
    sample "reverify.ind_s" (self "ind");
    sample "reverify.rhs_s" (self "rhs")
  end

let sample_loads ~csv_bytes spans =
  let loads =
    Hashtbl.fold
      (fun k s acc -> if String.starts_with ~prefix:"load:" k then s :: acc else acc)
      spans []
  in
  let load_s = List.fold_left (fun acc s -> acc +. T.dur s) 0. loads in
  sample "csv.load_s" load_s;
  sample "csv.mb_per_s" (float_of_int csv_bytes /. 1e6 /. load_s);
  sample "csv.alloc_mw" (List.fold_left (fun acc s -> acc +. mw s.T.alloc_w) 0. loads);
  sample "csv.heap_mw"
    (List.fold_left (fun acc s -> Float.max acc (mw (float_of_int s.T.heap_w))) 0. loads)

let sample_ooc ~csv_bytes ~spill_dir =
  let s = Ooc.stats () in
  let zones = s.Ooc.zone_segments_skipped + s.Ooc.zone_segments_swept in
  sample "ooc.spill_writes" (float_of_int s.Ooc.spill_writes);
  sample "ooc.map_loads" (float_of_int s.Ooc.map_loads);
  sample "ooc.evictions" (float_of_int s.Ooc.evictions);
  sample "ooc.zone_skip_ratio"
    (if zones = 0 then 0.
     else float_of_int s.Ooc.zone_segments_skipped /. float_of_int zones);
  sample "ooc.ind_short_circuits" (float_of_int s.Ooc.ind_zone_short_circuits);
  sample "ooc.spill_bytes_per_input_byte"
    (match spill_dir with
    | Some d -> float_of_int (dir_bytes d) /. float_of_int csv_bytes
    | None -> 0.)

let materialized_tables db =
  List.length
    (List.filter
       (fun r -> Table.materialized (Database.table db r.Relation.name))
       (Schema.relations (Database.schema db)))

(* Counters and spans around one traced operation. *)
let traced_op name ~pool f =
  T.new_run ();
  Ooc.reset_stats ();
  let batches0, lost0 =
    match pool with
    | Some p -> (Domain_pool.batches p, Domain_pool.lost_workers p)
    | None -> (0, 0)
  in
  let gc0 = Gc.quick_stat () in
  let root = T.open_ name in
  let v = f root in
  T.close root;
  let gc1 = Gc.quick_stat () in
  (match pool with
  | Some p ->
      sample "pool.batches" (float_of_int (Domain_pool.batches p - batches0));
      sample "pool.lost_workers" (float_of_int (Domain_pool.lost_workers p - lost0))
  | None -> ());
  sample "gc.minor_collections"
    (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
  sample "gc.major_collections"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  (root, v)

(* ---- result ---- *)

type result = {
  setup_s : float;  (** at the nominal host speed (see run.py) *)
  setup_wall_s : float;
  latency_ms : float list;  (** the workload's operation, untraced *)
  peak_rss_mb : float;
  extra : (string * float list) list;  (** other timings, ms *)
  sizes : Json.t;
}

(* Set-up wall time measured by run.py around generation, and the factor
   that brings set-up time to the nominal host speed (see run.py). *)
type setup = { pre_s : float; scale : float }

(* (at the nominal speed, wall) *)
let setup_times st own =
  let wall = st.pre_s +. own in
  (wall *. st.scale, wall)

let metric v unit = Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]

let coverage_and_overhead ~traced ~untraced =
  let roots = List.filter (fun s -> s.T.parent = None) !T.spans in
  let wall = List.fold_left (fun acc s -> acc +. T.dur s) 0. roots in
  let covered = List.fold_left (fun acc s -> acc +. s.T.child_s) 0. roots in
  sample "trace.coverage" (if wall = 0. then 0. else covered /. wall);
  sample "trace.overhead_ratio" (median traced /. median untraced)

let summary_line workload r =
  let timing name unit l =
    match l with
    | [] -> Printf.sprintf "%s n/a" name
    | l -> Printf.sprintf "%s %.4g %s (n=%d)" name (median l) unit (List.length l)
  in
  let extra name = Option.value ~default:[] (List.assoc_opt name r.extra) in
  let refresh = extra "refresh_ms" in
  let tail_s =
    match tail refresh with
    | Some (p, v) -> Printf.sprintf "refresh_ms.tail %.4g ms (p%d, n=%d)" v p (List.length refresh)
    | None -> "refresh_ms.tail n/a"
  in
  String.concat " | "
    [
      workload;
      Printf.sprintf "setup_s %.4g s (wall %.4g s)" r.setup_s r.setup_wall_s;
      timing "job_s.p50" "s" (List.map (fun ms -> ms /. 1000.) (extra "job_ms"));
      Printf.sprintf "peak_rss_mb %.4g MB" r.peak_rss_mb;
      timing "refresh_ms.p50" "ms" refresh;
      tail_s;
      timing "mutate_ms.p50" "ms" (extra "mutate_ms");
      timing "latency_ms.p50" "ms" r.latency_ms;
      timing "latency_rel.p50" "x" !relative;
      Printf.sprintf "error_rate %g ratio (%d/%d)"
        (float_of_int !failed /. float_of_int (max 1 !attempted))
        !failed !attempted;
    ]

let emit ~workload ~trace ~seed ~nproc ~commit ~setup_scale ~out r =
  let metrics =
    if trace then
      List.map
        (fun (name, unit) ->
          let v =
            match Hashtbl.find_opt layer_samples name with
            | Some l -> median l
            | None -> 0.
          in
          (name, metric v unit))
        per_layer
    else
      [
        ("setup_s", metric r.setup_s "s");
        ("latency_rel.p50", metric (median !relative) "x");
        ("peak_rss_mb", metric r.peak_rss_mb "MB");
      ]
  in
  let line =
    Json.Obj
      [
        ("correct", Json.Bool (!failed = 0));
        ("attempted", Json.Int !attempted);
        ("failed", Json.Int !failed);
        ("metrics", Json.Obj metrics);
      ]
  in
  if out <> "" then begin
    let samples l = Json.List (List.map (fun v -> Json.Float v) l) in
    W.write_file out
      (Json.to_string
         (Json.Obj
            [
              ( "host",
                Json.Obj
                  [
                    ("nproc", Json.Int nproc);
                    ("ocaml", Json.String Sys.ocaml_version);
                    ("commit", Json.String commit);
                  ] );
              ("workload", Json.String workload);
              ("seed", Json.Int seed);
              ("trace", Json.Bool trace);
              ("sizes", r.sizes);
              ("setup_wall_s", Json.Float r.setup_wall_s);
              ("setup_scale", Json.Float setup_scale);
              ("failures", Json.List (List.map (fun s -> Json.String s) !failures));
              ("latency_ms", samples r.latency_ms);
              ("latency_rel", samples (List.rev !relative));
              ("samples_ms", Json.Obj (List.map (fun (k, l) -> (k, samples l)) r.extra));
              ("result", line);
              ("spans", if trace then T.to_json () else Json.List []);
            ]))
  end;
  print_endline (summary_line workload r);
  print_endline (Json.to_string line)

(* ---- analyze-narrow / analyze-wide-ooc ---- *)

let segment_rows = 4096

let reference_path dir = Filename.concat dir "reference.json"

(* analyze-wide-ooc's reference: the same spec, sequential and
   unbudgeted, in a process of its own (so its heap does not raise the
   measured process's high-water mark). Only its artifacts are used. *)
let reference dir =
  Ooc.configure ~segment_rows ();
  let spec =
    spec_of ~data_dir:(W.csv_dir dir) ~engine:Engine.default ~migrate:false dir
  in
  match Job.run spec with
  | Error p -> fail "reference job: %s" (Error.to_string p.Pipeline.p_error)
  | Ok r ->
      W.write_file (reference_path dir)
        (Json.to_string
           (Json.Obj [ ("digest", Json.String (digest (Dbre.Report.artifacts r))) ]))

let analyze w ~dir ~seconds ~trace ~setup =
  let truth = W.read_truth dir in
  let manifest = Json.of_string (W.read_file (W.manifest_path dir)) in
  let csv_bytes = Option.value ~default:1 (Json.mem_int "csv_bytes" manifest) in
  let t_setup = now () in
  let spec, expected, spill_dir =
    if w = W.Analyze_wide_ooc then begin
        let rj = Json.of_string (W.read_file (reference_path dir)) in
        let budget =
          match Json.mem_int "resident_budget_words" manifest with
          | Some b -> b
          | None -> fail "manifest has no resident_budget_words"
        in
        let spill = Filename.concat dir "spill" in
        let engine =
          Engine.make ~parallelism:(Engine.Domains 2) ~segment_rows
            ~spill_dir:spill ~resident_budget_words:budget ()
        in
        ( spec_of ~data_dir:(W.csv_dir dir) ~engine ~migrate:false dir,
          Json.mem_string "digest" rj,
          Some spill )
    end
    else
        ( spec_of ~data_dir:(W.csv_dir dir) ~engine:Engine.default ~migrate:true
            ~checkpoint_dir:(Filename.concat dir "ckpt") dir,
          None,
          None )
  in
  let pool = Engine.pool spec.Job_spec.engine in
  calibration_domains := Engine.domain_count spec.Job_spec.engine;
  (* each job starts from a compacted heap, as a one-shot [dbre analyze]
     process starts from a fresh one; this also makes the heap (and the
     peak resident set) repeat exactly for a given input. [k] checks the
     outcome (see [calibrated]). *)
  let run_job k =
    Gc.compact ();
    calibrated
      (fun () -> Result.map (fun r -> (r, Dbre.Report.artifacts r)) (Job.run spec))
      (fun dt outcome ->
        k dt (Result.map_error (fun p -> Error.to_string p.Pipeline.p_error) outcome))
  in
  (* warm-up job: its artifacts are the run's reference when no
     sequential reference was computed *)
  let expected =
    run_job (fun _ -> function
      | Error e -> fail "warm-up job: %s" e
      | Ok (r, arts) ->
          check "warm-up job recovers the planted INDs and FDs" (truth_holds truth r);
          let d = digest arts in
          (match expected with
          | Some e ->
              check "artifacts match the sequential unbudgeted reference" (d = e)
          | None -> ());
          d)
  in
  let setup_s, setup_wall_s = setup_times setup (now () -. t_setup) in
  relative := [];
  let verify_job what r arts =
    check (what ^ ": IND = planted, F contains planted FDs") (truth_holds truth r);
    check (what ^ ": artifacts identical within the run") (digest arts = expected)
  in
  let traced_job () =
    last_calibration := None;
    Gc.compact ();
    let root, v =
      traced_op "job" ~pool (fun root ->
          let tap, spans = span_tap root in
          let supervise = Job_spec.supervisor spec in
          let outcome =
            match Job.database ~supervise ~progress:tap spec with
            | Error e -> Error (Error.to_string e)
            | Ok (db, quarantine) -> (
                match Job.verify ~progress:tap ~supervise ~db ~quarantine spec with
                | Ok r ->
                    let arts =
                      T.with_span ~parent:root "report" (fun () ->
                          Dbre.Report.artifacts r)
                    in
                    Ok (db, r, arts)
                | Error p -> Error (Error.to_string p.Pipeline.p_error))
          in
          (outcome, spans))
    in
    let outcome, spans = v in
    sample_ooc ~csv_bytes ~spill_dir;
    (match outcome with
    | Error e -> check ("traced job: " ^ e) false
    | Ok (db, r, arts) ->
        verify_job "traced job" r arts;
        sample_loads ~csv_bytes spans;
        sample_stages ~refresh:false spans r;
        sample "store.materialized_tables" (float_of_int (materialized_tables db));
        sample "report.s" (T.kid_time root "report");
        (match spec.Job_spec.checkpoint_dir with
        | Some ckpt ->
            sample "checkpoint.bytes_per_input_byte"
              (float_of_int (dir_bytes ckpt) /. float_of_int csv_bytes);
            sample "checkpoint.write_s"
              (fst (replay_checkpoints ~dir:(Filename.concat dir "ckpt-replay") db r spans))
        | None -> ()));
    T.dur root *. 1000.
  in
  let untraced = ref [] and traced = ref [] in
  let t_loop = now () in
  let i = ref 0 in
  while now () -. t_loop < seconds do
    if trace && !i mod 2 = 1 then traced := traced_job () :: !traced
    else
      run_job (fun dt -> function
        | Error e -> check ("job: " ^ e) false
        | Ok (r, arts) ->
            untraced := (dt *. 1000.) :: !untraced;
            verify_job "job" r arts);
    incr i
  done;
  let peak = peak_rss_mb () in
  if trace then coverage_and_overhead ~traced:!traced ~untraced:!untraced;
  {
    setup_s;
    setup_wall_s;
    latency_ms = List.rev !untraced;
    peak_rss_mb = peak;
    extra = [ ("job_ms", List.rev !untraced) ];
    sizes = manifest;
  }

(* ---- serve-refresh ---- *)

let socket = "serve.sock"

let serve ~dir ~seconds ~trace ~setup =
  let truth = W.read_truth dir in
  let manifest = Json.of_string (W.read_file (W.manifest_path dir)) in
  let csv_bytes = Option.value ~default:1 (Json.mem_int "csv_bytes" manifest) in
  let stream = W.read_mutations dir in
  let spec_at ?checkpoint_dir data_dir =
    spec_of ?checkpoint_dir ~data_dir ~engine:Engine.default ~migrate:false dir
  in
  let spec = spec_at (W.csv_dir dir) in
  let state_dir = Filename.concat dir "state" in
  W.rm_rf state_dir;
  (* a relative socket path keeps sun_path short wherever the checkout is *)
  Sys.chdir dir;
  let t_setup = now () in
  let server = Dbre_serve.Server.create ~max_jobs:1 ~state_dir ~socket () in
  Dbre_serve.Server.start server;
  let c = Client.connect socket in
  let ok what = function Ok v -> v | Error (code, msg) -> fail "%s: %s %s" what code msg in
  let t_submit = now () in
  let id, _ = ok "submit" (Client.submit c spec) in
  let rec first_loading since =
    let events, next, settled = ok "watch" (Client.watch c ~since id) in
    if settled
       || List.exists (fun e -> Json.mem_string "kind" e = Some "loading") events
    then now ()
    else first_loading next
  in
  let queue_ms = (first_loading 0 -. t_submit) *. 1000. in
  let state, initial = ok "wait" (Client.wait c id) in
  check "initial job settles done" (state = "done");
  let mutate (m : W.mutation) =
    Client.mutate c ~insert:m.W.insert ~delete:m.W.delete id m.W.relation
  in
  let timed f =
    let t0 = now () in
    let v = f () in
    ((now () -. t0) *. 1000., v)
  in
  let last = ref initial in
  let verify_cycle what m_ok r_ok a =
    check (what ^ ": mutate") (Result.is_ok m_ok);
    check (what ^ ": refresh settles done")
      (match r_ok with Ok (_, st) -> st = "done" | Error _ -> false);
    check (what ^ ": artifacts equal the initial job's")
      (match a with
      | Ok (arts, st) ->
          last := arts;
          st = "done" && arts = initial
      | Error _ -> false)
  in
  if Array.length stream = 0 then fail "empty mutation stream";
  (* warm-up cycle: the first mutate materializes the deferred table *)
  let first_mutate_ms, mr = timed (fun () -> mutate stream.(0)) in
  verify_cycle "warm-up cycle" mr (Client.refresh c id) (Client.artifacts c id);
  let setup_s, setup_wall_s = setup_times setup (now () -. t_setup) in
  (* the traced run's twin: the same spec loaded and verified in this
     process, then mutated and refreshed through the calls the daemon
     makes ([Table] mutation, [Job.refresh]), so each layer of a refresh
     gets a span *)
  let twin =
    if not trace then None
    else begin
      let ckpt = Filename.concat dir "ckpt-twin" in
      W.rm_rf ckpt;
      let tspec = { spec with Job_spec.checkpoint_dir = Some ckpt } in
      let _, (db, quarantine) =
        traced_op "twin-load" ~pool:None (fun root ->
            let tap, spans = span_tap root in
            match Job.database ~progress:tap tspec with
            | Error e -> fail "twin load: %s" (Error.to_string e)
            | Ok v ->
                sample_loads ~csv_bytes spans;
                v)
      in
      (match Job.verify ~db ~quarantine tspec with
      | Ok _ -> ()
      | Error p -> fail "twin verify: %s" (Error.to_string p.Pipeline.p_error));
      W.apply_mutation db stream.(0);
      (match Job.refresh ~db ~quarantine tspec with
      | _, Ok _ -> ()
      | _, Error p -> fail "twin refresh: %s" (Error.to_string p.Pipeline.p_error));
      sample "serve.queue_ms" queue_ms;
      Some (tspec, db, quarantine, ckpt)
    end
  in
  let cycle_ms = ref [] and refresh_ms = ref [] and mutate_ms = ref []
  and artifacts_ms = ref [] and traced_ms = ref [] in
  let consumed = ref 1 in
  let untraced_cycle m =
    calibrated
      (fun () ->
        let mutated = timed (fun () -> mutate m) in
        let refreshed = timed (fun () -> Client.refresh c id) in
        (mutated, refreshed, timed (fun () -> Client.artifacts c id)))
      (fun _ ((mt, mr), (rt, rr), (at, a)) ->
        cycle_ms := (mt +. rt +. at) :: !cycle_ms;
        mutate_ms := mt :: !mutate_ms;
        refresh_ms := rt :: !refresh_ms;
        artifacts_ms := at :: !artifacts_ms;
        verify_cycle "cycle" mr rr a)
  in
  let traced_cycle (tspec, db, quarantine, ckpt) m =
    last_calibration := None;
    ignore
      (traced_op "cycle" ~pool:None (fun root ->
          let span name f = T.with_span ~parent:root name f in
          let ping = span "serve.ping" (fun () -> Client.ping c) in
          check "ping" ping;
          let mr = span "serve.mutate" (fun () -> mutate m) in
          let rr = span "serve.refresh" (fun () -> Client.refresh c id) in
          let a = span "serve.artifacts" (fun () -> Client.artifacts c id) in
          verify_cycle "traced cycle" mr rr a;
          span "table.mutate" (fun () -> W.apply_mutation db m);
          sample "table.materialized_after_mutate"
            (float_of_int (materialized_tables db));
          (* [Job.refresh] runs the delta pass and the checkpoint
             invalidation, then re-verifies stage by stage: the delta span
             runs from the call to the first stage event *)
          let tap, spans = span_tap root in
          let delta = T.open_ ~parent:root "delta" in
          let close_delta () = if Float.is_nan delta.T.stop then T.close delta in
          let tap ev =
            (match ev with
            | Job.Stage (Pipeline.Stage_started _) -> close_delta ()
            | _ -> ());
            tap ev
          in
          let report, outcome = Job.refresh ~progress:tap ~db ~quarantine tspec in
          close_delta ();
          sample "delta.absorbed" (float_of_int report.Refresh.absorbed);
          sample "delta.rebuilt" (float_of_int report.Refresh.rebuilt);
          sample "delta.rows_applied" (float_of_int report.Refresh.rows_applied);
          match outcome with
          | Error p ->
              check ("twin refresh: " ^ Error.to_string p.Pipeline.p_error) false
          | Ok r ->
              let arts = span "report" (fun () -> Dbre.Report.artifacts r) in
              check "twin artifacts equal the daemon's" (Some arts = Result.to_option (Result.map fst a));
              sample_stages ~refresh:true spans r;
              sample "store.materialized_tables" (float_of_int (materialized_tables db));
              sample "checkpoint.bytes_per_input_byte"
                (float_of_int (dir_bytes ckpt) /. float_of_int csv_bytes);
              let writes, inval =
                replay_checkpoints ~dir:(Filename.concat dir "ckpt-replay") db r spans
              in
              T.attach ~parent:delta "checkpoint.invalidate"
                ~dur:(Float.min inval (T.dur delta));
              sample "checkpoint.write_s" (inval +. writes);
              let d = T.kid_time root in
              sample "table.mutate_s" (d "table.mutate");
              sample "delta.s" (T.self_time delta);
              sample "report.s" (d "report");
              sample "serve.ping_ms" (d "serve.ping" *. 1000.);
              let verify_s =
                Hashtbl.fold (fun _ s acc -> acc +. T.dur s) spans 0.
              in
              sample "serve.refresh_overhead_ms"
                ((d "serve.refresh" -. (T.dur delta +. verify_s)) *. 1000.);
              traced_ms :=
                ((d "serve.mutate" +. d "serve.refresh" +. d "serve.artifacts") *. 1000.)
                :: !traced_ms));
    sample_ooc ~csv_bytes ~spill_dir:None
  in
  let t_loop = now () in
  while now () -. t_loop < seconds && !consumed < Array.length stream do
    let m = stream.(!consumed) in
    (match twin with
    (* traced in pairs, so both relations the stream alternates
       between are traced and untraced alike *)
    | Some tw when !consumed / 2 mod 2 = 0 -> traced_cycle tw m
    | _ -> untraced_cycle m);
    incr consumed
  done;
  if !consumed >= Array.length stream then
    prerr_endline "bench.exe: mutation stream exhausted before --seconds elapsed";
  let peak = peak_rss_mb () in
  if trace then coverage_and_overhead ~traced:!traced_ms ~untraced:!cycle_ms;
  Client.close c;
  Dbre_serve.Server.stop server;
  (* a cold Job.run over the final mutated extension, from CSV files,
     must reproduce the last refresh *)
  (match Job.database spec with
  | Error e -> check ("final load: " ^ Error.to_string e) false
  | Ok (db, _) ->
      for k = 0 to !consumed - 1 do
        W.apply_mutation db stream.(k)
      done;
      let final = Filename.concat dir "final-csv" in
      W.rm_rf final;
      Dbre.Checkpoint.ensure_dir final;
      List.iter
        (fun r ->
          W.write_file
            (Filename.concat final (r.Relation.name ^ ".csv"))
            (Csv.dump_table (Database.table db r.Relation.name)))
        (Schema.relations (Database.schema db));
      (match Job.run (spec_at final) with
      | Error p -> check ("cold run: " ^ Error.to_string p.Pipeline.p_error) false
      | Ok r ->
          check "cold run recovers the planted INDs and FDs" (truth_holds truth r);
          check "cold run over the mutated extension matches the last refresh"
            (Dbre.Report.artifacts r = !last));
      W.rm_rf final);
  {
    setup_s;
    setup_wall_s;
    latency_ms = List.rev !cycle_ms;
    peak_rss_mb = peak;
    extra =
      [
        ("refresh_ms", List.rev !refresh_ms);
        ("first_mutate_ms", [ first_mutate_ms ]);
        ("mutate_ms", List.rev !mutate_ms);
        ("artifacts_ms", List.rev !artifacts_ms);
      ];
    sizes =
      Json.Obj
        [
          ("manifest", manifest);
          ("cycles", Json.Int (!consumed - 1));
          ("queue_ms", Json.Float queue_ms);
        ];
  }

let () =
  let workload = ref "" and data = ref "" and seconds = ref 10. and trace = ref 0
  and seed = ref 0 and pre_setup = ref 0. and setup_scale = ref 1.
  and nproc = ref 0 and commit = ref "unknown"
  and out = ref "" and reference_only = ref false and calibrate = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--data", Arg.Set_string data, "DIR generated inputs (gen.exe --out)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--seed", Arg.Set_int seed, "N seed the inputs were generated with");
      ("--pre-setup-s", Arg.Set_float pre_setup, "X set-up seconds measured outside");
      ("--setup-scale", Arg.Set_float setup_scale, "F nominal / current host speed");
      ("--nproc", Arg.Set_int nproc, "N processors available");
      ("--commit", Arg.Set_string commit, "SHA commit measured");
      ("--out", Arg.Set_string out, "FILE result file");
      ("--reference", Arg.Set reference_only, " compute analyze-wide-ooc's reference");
      ("--calibrate", Arg.Set calibrate, " print the calibration task's time and exit");
    ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload NAME --data DIR [options]";
  if !calibrate then begin
    calibrate_only ();
    exit 0
  end;
  let w =
    match W.of_name !workload with Some w -> w | None -> fail "unknown workload %S" !workload
  in
  if !data = "" then fail "--data is required";
  let dir =
    if Filename.is_relative !data then Filename.concat (Sys.getcwd ()) !data else !data
  in
  let out =
    if !out <> "" && Filename.is_relative !out then Filename.concat (Sys.getcwd ()) !out
    else !out
  in
  if !reference_only then reference dir
  else begin
    let trace = !trace = 1 in
    let setup = { pre_s = !pre_setup; scale = !setup_scale } in
    let r =
      match w with
      | W.Analyze_narrow | W.Analyze_wide_ooc ->
          analyze w ~dir ~seconds:!seconds ~trace ~setup
      | W.Serve_refresh -> serve ~dir ~seconds:!seconds ~trace ~setup
    in
    emit ~workload:(W.name w) ~trace ~seed:!seed ~nproc:!nproc ~commit:!commit
      ~setup_scale:!setup_scale ~out r;
    exit (if !failed = 0 then 0 else 1)
  end
