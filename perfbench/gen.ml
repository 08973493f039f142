(* Seeded workload generator: writes one workload's inputs to a
   directory — the DDL, one CSV per relation ([Csv.dump_table]), the
   embedded-SQL programs, the planted ground truth, a manifest of sizes
   and, for serve-refresh, the mutation stream.

   gen.exe --workload NAME --seed N --out DIR

   The runner never generates: it reads what this program wrote. *)

module W = Workloads

let () =
  let workload = ref "" and seed = ref 1 and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to generate");
      ("--seed", Arg.Set_int seed, "N generator seed");
      ("--out", Arg.Set_string out, "DIR output directory (replaced)");
    ]
    (fun a -> raise (Arg.Bad a))
    "gen.exe --workload NAME --seed N --out DIR";
  match W.of_name !workload with
  | Some w when !out <> "" ->
      W.write_inputs w (W.spec w ~seed:!seed) ~seed:!seed ~cycles:W.stream_cycles
        ~out:!out
  | _ ->
      prerr_endline "gen.exe: need --workload (analyze-narrow | analyze-wide-ooc | serve-refresh) and --out";
      exit 2
