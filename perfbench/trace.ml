(* In-memory spans recorded by the benchmark around public calls into
   the program. A span has a name, start and end (wall seconds), the
   span that caused it, and the run id of the operation (job or cycle)
   it belongs to, plus the allocation and heap size seen at its edges
   ([Gc.quick_stat], which does not walk the heap). Spans stay in memory
   and are written out with the result file when the run ends. *)

open Relational

type span = {
  id : int;
  parent : span option;
  run : int;
  name : string;
  start : float;
  mutable stop : float;
  alloc0 : float;
  mutable alloc_w : float;  (** words allocated while open *)
  mutable heap_w : int;  (** major heap words at close *)
  mutable child_s : float;  (** summed duration of closed children *)
  mutable kids : span list;  (** closed children *)
}

let spans : span list ref = ref []
let next_id = ref 0
let current_run = ref 0
let now = Unix.gettimeofday

let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let new_run () = incr current_run

let make ?parent name ~start ~alloc0 =
  incr next_id;
  let s =
    {
      id = !next_id;
      parent;
      run = !current_run;
      name;
      start;
      stop = nan;
      alloc0;
      alloc_w = 0.;
      heap_w = 0;
      child_s = 0.;
      kids = [];
    }
  in
  spans := s :: !spans;
  s

let dur s = if Float.is_nan s.stop then 0. else s.stop -. s.start

let finish s ~stop =
  s.stop <- stop;
  Option.iter
    (fun p ->
      p.child_s <- p.child_s +. dur s;
      p.kids <- s :: p.kids)
    s.parent

let open_ ?parent name = make ?parent name ~start:(now ()) ~alloc0:(allocated ())

let close s =
  s.alloc_w <- allocated () -. s.alloc0;
  s.heap_w <- (Gc.quick_stat ()).Gc.heap_words;
  finish s ~stop:(now ())

let with_span ?parent name f =
  let s = open_ ?parent name in
  Fun.protect ~finally:(fun () -> close s) f

(* A call timed out of line (replayed after the operation, see
   [Bench.replay_checkpoints]) and attached under [parent], ending where
   the parent ends. *)
let attach ~parent name ~dur =
  let s = make ~parent name ~start:(parent.stop -. dur) ~alloc0:0. in
  s.heap_w <- parent.heap_w;
  s.stop <- parent.stop;
  parent.child_s <- parent.child_s +. dur;
  parent.kids <- s :: parent.kids

(* summed duration of [s]'s children called [name] *)
let kid_time s name =
  List.fold_left (fun acc k -> if k.name = name then acc +. dur k else acc) 0. s.kids

(* duration minus the part of it covered by child spans *)
let self_time s = dur s -. s.child_s

let to_json () =
  Json.List
    (List.rev_map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.id);
             ("parent", Json.Int (match s.parent with Some p -> p.id | None -> 0));
             ("run", Json.Int s.run);
             ("name", Json.String s.name);
             ("start", Json.Float s.start);
             ("end", Json.Float s.stop);
             ("self_s", Json.Float (self_time s));
             ("alloc_words", Json.Float s.alloc_w);
             ("heap_words", Json.Int s.heap_w);
           ])
       !spans)
