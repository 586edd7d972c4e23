(* The repository benchmark's measuring process: runs one workload (or,
   with [--trace 1], the layer trace of one workload), then prints the
   report lines and, last, one JSON object that run.py completes into the
   benchmark's result line. *)

module Json = Noc_exec.Json
module W = Repobench.Workloads

let steal_jiffies () =
  try
    let ic = open_in "/proc/stat" in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    let fields = List.filter (( <> ) "") (String.split_on_char ' ' line) in
    int_of_string (List.nth fields 8)
  with _ -> -1

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let workdir = ref "." and exe = ref "" and flambda = ref "unknown" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " sweep-d128 | edit-session | daemon-mix");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measuring budget");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics instead of end-to-end");
      ("--workdir", Arg.Set_string workdir, " scratch directory");
      ("--noc-synth", Arg.Set_string exe, " path of the noc_synth binary");
      ("--flambda", Arg.Set_string flambda, " provenance: the compiler's flambda flag");
      ("--commit", Arg.Set_string commit, " provenance: source revision");
    ]
    (fun a -> raise (Arg.Bad a))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let steal0 = steal_jiffies () and cpu0 = cpu_time () and wall0 = W.now () in
  let run =
    match !workload with
    | "sweep-d128" -> W.sweep_d128
    | "edit-session" -> W.edit_session
    | "daemon-mix" -> W.daemon_mix
    | w -> prerr_endline ("unknown workload " ^ w); exit 2
  in
  let seed = !seed and seconds = !seconds and workdir = !workdir and exe = !exe in
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
  let (outcome : W.outcome) =
    if !trace = 1 then Repobench.Layers.traced ~seed ~seconds ~workdir ~exe ~run:(run ~exe)
    else run ~exe ~seed ~seconds ~workdir
  in
  let provenance =
    Printf.sprintf "nproc=%d ocaml=%s flambda=%s commit=%s steal_jiffies=%d cpu_per_wall=%.3f"
      W.nproc Sys.ocaml_version !flambda !commit
      (steal_jiffies () - steal0)
      ((cpu_time () -. cpu0) /. (W.now () -. wall0))
  in
  let lines =
    outcome.W.report
    @ List.map
        (fun (x : W.metric) -> Printf.sprintf "%s %s = %.6g %s" !workload x.W.name x.W.value x.W.unit_)
        outcome.W.metrics
  in
  List.iter (fun l -> Printf.printf "%s | %s\n" l provenance) lines;
  let t = W.tally in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (t.W.problems = [] && t.W.failed = 0));
        ("attempted", Json.Int t.W.attempted);
        ("failed", Json.Int t.W.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (x : W.metric) ->
                 ( x.W.name,
                   Json.Obj [ ("value", Json.Float x.W.value); ("unit", Json.String x.W.unit_) ] ))
               outcome.W.metrics) );
        ( "rss_argvs",
          Json.List
            (List.map
               (fun argv -> Json.List (List.map (fun s -> Json.String s) argv))
               outcome.W.rss_argvs) );
        ("provenance", Json.String provenance);
      ]
  in
  print_endline (Json.to_string result)
