(* The three workloads.  Each runs for a fixed budget, checks every
   output it gets, and returns its end-to-end metrics; see README.md for
   why each exists and why gated timings are p10. *)

module Synth = Noc_synthesis.Synth
module Config = Noc_synthesis.Config
module Verify = Noc_synthesis.Verify
module DP = Noc_synthesis.Design_point
module Codec = Noc_serve.Serve.Codec
module Memo = Noc_cache.Memo
module Pool = Noc_exec.Pool
module Json = Noc_exec.Json
module Spec_io = Noc_spec.Spec_io
module Soc_spec = Noc_spec.Soc_spec
module Delta = Noc_spec.Delta
module Scenario = Noc_spec.Scenario
module Power = Noc_models.Power
module Bench_case = Noc_benchmarks.Bench_case

let config = Config.default
let nproc = Domain.recommended_domain_count ()
(* seconds on the monotonic clock *)
let now () = Int64.to_float (Noc_exec.Metrics.now_ns ()) /. 1e9
let ms_since t0 = (now () -. t0) *. 1000.0

(* ---------- operation accounting ---------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** anything that makes the run incorrect *)
  mutable points_verified : int;
  mutable points_failed : int;
  kinds : (string, int) Hashtbl.t;  (** failing points per violation kind *)
}

let tally =
  {
    attempted = 0;
    failed = 0;
    problems = [];
    points_verified = 0;
    points_failed = 0;
    kinds = Hashtbl.create 8;
  }

let problem fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("repobench: " ^ msg);
      tally.problems <- msg :: tally.problems)
    fmt

(* One counted operation: an exception is a failed operation. *)
let attempt what f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
    tally.failed <- tally.failed + 1;
    problem "%s raised %s" what (Printexc.to_string e);
    None

(* A digest comparison that counts as failed operation on mismatch. *)
let expect what ~got ~want =
  if got <> want then begin
    tally.failed <- tally.failed + 1;
    problem "%s: digest %s, expected %s" what got want
  end

let digest = Codec.result_digest

let kind_name = function
  | Verify.Unrouted_flow _ -> "unrouted"
  | Verify.Duplicate_route _ -> "duplicate_route"
  | Verify.Broken_route _ -> "broken_route"
  | Verify.Wrong_endpoints _ -> "wrong_endpoints"
  | Verify.Bandwidth_mismatch _ -> "bandwidth_mismatch"
  | Verify.Port_overflow _ -> "port_overflow"
  | Verify.Capacity_overflow _ -> "capacity_overflow"
  | Verify.Latency_violation _ -> "latency"
  | Verify.Timing_violation _ -> "timing"
  | Verify.Clock_mismatch _ -> "clock_mismatch"
  | Verify.Shutdown_violation _ -> "shutdown"
  | Verify.Missing_backup _ -> "missing_backup"
  | Verify.Backup_not_disjoint _ -> "backup_not_disjoint"

(* Every saved point through [Verify.check_all], violations counted by
   kind.  Timing violations are the known d128 defect and are reported
   through the fail share; any other kind makes the run incorrect. *)
let verify_points ~protect soc vi (r : Synth.result) =
  List.iter
    (fun p ->
      tally.points_verified <- tally.points_verified + 1;
      match Verify.check_all ~require_backups:protect config soc vi p.DP.topology with
      | Ok () -> ()
      | Error vs ->
        tally.points_failed <- tally.points_failed + 1;
        List.iter
          (fun k ->
            Hashtbl.replace tally.kinds k
              (1 + Option.value ~default:0 (Hashtbl.find_opt tally.kinds k));
            if k <> "timing" then problem "saved point fails Verify with %s" k)
          (List.sort_uniq compare (List.map kind_name vs)))
    r.Synth.points

let best_power_mw r = Power.total_mw (Synth.best_power r).DP.power

(* ---------- results of one run ---------- *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  metrics : metric list;
  report : string list;  (** human-readable lines, printed before the result *)
  rss_argvs : string list list;
      (** fresh children; [peak_rss_mb] is the median of their peak RSS *)
  traced : (Spec_io.bundle * Synth.Options.t) list;
      (** the specs the traced run replays layer by layer *)
  ops : int;  (** timed operations, the unit per-op counters divide by *)
  daemon_counters : (string * float) list;
      (** counters and timer totals (ns) the daemon reported, summed over
          its lives; empty for the in-process workloads *)
}

let m name unit_ value = { name; value; unit_ }

(* "name p10 (n=...), p50, tail" for a sample list in ms. *)
let describe name xs =
  if xs = [] then Printf.sprintf "%s: no samples" name
  else
    let q, t = Stats.tail xs in
    Printf.sprintf "%s: min %.3f ms, p10 %.3f ms, p25 %.3f ms, p50 %.3f ms%s (n=%d)" name
      (Stats.percentile 0.0 xs) (Stats.percentile 0.1 xs) (Stats.percentile 0.25 xs)
      (Stats.median xs)
      (if q > 0.5 then Printf.sprintf ", p%g %.3f ms" (q *. 100.0) t else "")
      (List.length xs)

let p10 xs = Stats.percentile 0.1 xs
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The gated timings, [(name, unit, value as measured)], scaled to the
   reference host's speed, with report lines giving them as measured. *)
let timings workload xs =
  ( List.map (fun (name, unit_, v) -> m name unit_ (Calib.at_reference v)) xs,
    Calib.report workload
    :: List.map
         (fun (name, unit_, v) -> Printf.sprintf "%s %s as measured = %.6g %s" workload name v unit_)
         xs )

(* One set-up: load and parse the run's spec bundles, which must give
   back exactly what was written.  Workloads repeat it between their timed
   operations, so the median [setup_s] spans the whole run rather than one
   CPU-speed phase. *)
let setup_bundles files bundles =
  let t0 = now () in
  let loaded = List.map Spec_io.load files in
  let dt = now () -. t0 in
  List.iter2
    (fun l b ->
      match l with
      | Ok l when Spec_io.equal_bundle l b -> ()
      | Ok _ -> problem "spec bundle did not round-trip"
      | Error e -> problem "spec bundle did not load: %s" e)
    loaded bundles;
  dt

let save_bundle path b =
  match Spec_io.save path b with Ok () -> () | Error e -> failwith e

(* ---------- sweep-d128 ---------- *)

let sweep_d128 ~seed ~seconds ~workdir ~exe =
  let bundles = Gen.d128_set ~seed in
  let files =
    List.mapi
      (fun i b ->
        let path = Filename.concat workdir (Printf.sprintf "d128-%d.spec" i) in
        save_bundle path b;
        path)
      bundles
  in
  let setups = ref [ setup_bundles files bundles ] in
  let specs = Array.of_list (List.map (fun b -> (b.Spec_io.soc, Gen.vi_of b)) bundles) in
  let n = Array.length specs in
  let options domains = { Synth.Options.default with domains = Some domains } in
  (* untimed jobs=1 references *)
  let refs =
    Array.map
      (fun (soc, vi) ->
        Memo.clear_all ();
        let t0 = now () in
        match attempt "reference sweep" (fun () -> Synth.run ~options:(options 1) config soc vi) with
        | Some r ->
          let dt = ms_since t0 in
          verify_points ~protect:false soc vi r;
          (digest r, best_power_mw r, dt)
        | None -> ("", nan, nan))
      specs
  in
  let cold = Array.make n [] and warm = Array.make n [] in
  let rng = Random.State.make [| seed; 128 |] in
  Calib.reset ();
  let deadline = now () +. float_of_int seconds in
  let rounds = ref 0 in
  while !rounds < 3 || now () < deadline do
    for k = 0 to n - 1 do
      Calib.maybe_probe ();
      setups := setup_bundles files bundles :: !setups;
      let soc, vi = specs.(k) in
      let ref_digest, _, _ = refs.(k) in
      Memo.clear_all ();
      let t0 = now () in
      Trace.new_op ();
      match
        attempt "cold sweep" (fun () ->
            Trace.span "core.synth" "run" (fun () ->
                Synth.run ~options:(options nproc) config soc vi))
      with
      | None -> ()
      | Some r ->
        cold.(k) <- ms_since t0 :: cold.(k);
        expect "cold sweep" ~got:(digest r) ~want:ref_digest;
        let d = Gen.clean_edit rng (soc, vi) in
        let t0 = now () in
        (match
           attempt "clean rerun" (fun () ->
               Trace.new_op ();
               Trace.span "core.synth" "rerun" (fun () ->
                   Synth.rerun ~options:(options nproc) ~prev:r ~delta:[ d ] config soc vi))
         with
        | Some (_, r') ->
          warm.(k) <- ms_since t0 :: warm.(k);
          expect "clean rerun" ~got:(digest r') ~want:ref_digest
        | None -> ())
    done;
    incr rounds
  done;
  (* Gated timings are the geometric mean of the fixed companions' p10s
     (specs 1..n-1): the seed's own spec is swept and checked like them,
     but its cost follows the seed, and with it in the statistic (as the
     median of all three) the run-to-run spread was 1.3-1.5 times as
     large. *)
  let companions f =
    exp (mean (List.init (n - 1) (fun k -> log (f (k + 1)))))
  in
  let cold_ms = companions (fun k -> p10 cold.(k)) in
  let warm_ms = companions (fun k -> p10 warm.(k)) in
  let best = Stats.median (List.init n (fun k -> let _, p, _ = refs.(k) in p)) in
  let report =
    List.concat
      (List.init n (fun k ->
           let _, p, j1 = refs.(k) in
           [
             describe (Printf.sprintf "sweep-d128 spec %d cold sweep jobs=%d" k nproc) cold.(k);
             describe (Printf.sprintf "sweep-d128 spec %d clean rerun jobs=%d" k nproc) warm.(k);
             Printf.sprintf "sweep-d128 spec %d reference sweep jobs=1: %.1f ms, best power %.3f mW" k j1 p;
           ]))
  in
  let gated, raw =
    timings "sweep-d128"
      [ ("setup_s", "s", Stats.median !setups); ("cold_ms", "ms", cold_ms); ("warm_ms", "ms", warm_ms) ]
  in
  {
    metrics = gated @ [ m "best_power_mw" "mW" best ];
    report = report @ raw;
    rss_argvs =
      List.map (fun f -> [ exe; "synth"; "--spec"; f; "--jobs"; string_of_int nproc; "-q" ]) files;
    traced = [ (List.hd bundles, options nproc) ];
    ops = Array.fold_left (fun acc l -> acc + (2 * List.length l)) 0 cold;
    daemon_counters = [];
  }

(* ---------- edit-session ---------- *)

let scenario_digest (s : Synth.scenarios_result) =
  Memo.digest
    ( digest s.Synth.union,
      Power.total_mw s.Synth.best.DP.power,
      s.Synth.best.DP.avg_latency_cycles,
      s.Synth.weighted_power_mw,
      s.Synth.union_baseline_mw,
      List.map
        (fun (e : Synth.scenario_eval) ->
          ( e.Synth.scenario.Scenario.name,
            e.Synth.gated,
            e.Synth.active_flows,
            e.Synth.parked_flows,
            e.Synth.power_mw,
            Result.is_ok e.Synth.verified ))
        s.Synth.evals )

let edit_session ~seed ~seconds ~workdir ~exe =
  let base = Gen.bundle_of_case (Bench_case.find "d48") in
  let file = Filename.concat workdir "d48.spec" in
  save_bundle file base;
  let setups = ref [ setup_bundles [ file ] [ base ] ] in
  let soc0 = base.Spec_io.soc and vi0 = Gen.vi_of base in
  let options domains =
    { Synth.Options.default with protect = true; domains = Some domains }
  in
  let opts1 = options 1 and optsn = options nproc in
  Memo.clear_all ();
  let ref_digest =
    match attempt "reference sweep" (fun () -> Synth.run ~options:optsn config soc0 vi0) with
    | Some r -> verify_points ~protect:true soc0 vi0 r; digest r
    | None -> ""
  in
  let samples = Hashtbl.create 4 in
  let add cls dt =
    Hashtbl.replace samples cls (dt :: Option.value ~default:[] (Hashtbl.find_opt samples cls))
  in
  let get cls = Option.value ~default:[] (Hashtbl.find_opt samples cls) in
  let verified = Hashtbl.create 64 in
  let verify_once soc vi r =
    let d = digest r in
    if not (Hashtbl.mem verified d) then begin
      Hashtbl.add verified d ();
      verify_points ~protect:true soc vi r
    end
  in
  (* steps of session 0 re-checked against a fresh run after the timed loop *)
  let checks = ref [] in
  let first_powers = ref [] in
  Calib.reset ();
  let deadline = now () +. float_of_int seconds in
  let session = ref 0 in
  while !session = 0 || now () < deadline do
    let chain = Gen.session_chain ~seed ~session:!session base in
    Calib.maybe_probe ();
    Memo.clear_all ();
    let t0 = now () in
    Trace.new_op ();
    (match
       attempt "opening sweep" (fun () ->
           Trace.span "core.synth" "run" (fun () -> Synth.run ~options:opts1 config soc0 vi0))
     with
    | None -> ()
    | Some r0 ->
      add "opening" (ms_since t0);
      expect "opening sweep" ~got:(digest r0) ~want:ref_digest;
      if !session = 0 then first_powers := [ best_power_mw r0 ];
      let state = ref (soc0, vi0, base.Spec_io.scenarios) in
      let r = ref r0 and sr = ref None in
      List.iteri
        (fun step (cls, d) ->
          Calib.maybe_probe ();
          setups := setup_bundles [ file ] [ base ] :: !setups;
          let soc, vi, scenarios = !state in
          let sampled = !session = 0 && step mod 4 = seed mod 4 in
          match cls with
          | Gen.Clean | Gen.Dirty ->
            let label = Format.asprintf "rerun %a" Delta.pp d in
            let t0 = now () in
            (match
               attempt label (fun () ->
                   Trace.new_op ();
                   Trace.span "core.synth" ("rerun." ^ Gen.class_name cls) (fun () ->
                       Synth.rerun ~options:opts1 ~prev:!r ~delta:[ d ] config soc vi))
             with
            | None -> ()
            | Some ((soc', vi'), r') ->
              add (Gen.class_name cls) (ms_since t0);
              if cls = Gen.Clean then
                expect "clean rerun" ~got:(digest r') ~want:(digest !r)
              else verify_once soc' vi' r';
              if !session = 0 then first_powers := best_power_mw r' :: !first_powers;
              if sampled then checks := (cls, (soc', vi', scenarios), digest r') :: !checks;
              r := r';
              sr := None;
              state := (soc', vi', scenarios))
          | Gen.Rescore ->
            let prev =
              match !sr with
              | Some s -> Some s
              | None ->
                attempt "score scenarios" (fun () ->
                    Synth.score_scenarios config soc vi ~scenarios !r)
            in
            Option.iter
              (fun prev ->
                let t0 = now () in
                match
                  attempt "rescore" (fun () ->
                      Trace.new_op ();
                      Trace.span "core.synth" "rerun.rescore" (fun () ->
                          Synth.rerun_scenarios ~options:opts1 ~prev ~delta:[ d ] config soc vi
                            ~scenarios))
                with
                | None -> ()
                | Some ((_, _, scenarios'), s) ->
                  add "rescore" (ms_since t0);
                  if s.Synth.union != !r then problem "rescore re-synthesized the union sweep";
                  if sampled then
                    checks := (cls, (soc, vi, scenarios'), scenario_digest s) :: !checks;
                  sr := Some s;
                  state := (soc, vi, scenarios'))
              prev)
        chain);
    incr session
  done;
  (* sampled steps must equal a fresh run on the edited spec *)
  List.iter
    (fun (cls, (soc, vi, scenarios), want) ->
      Memo.clear_all ();
      match cls with
      | Gen.Rescore ->
        Option.iter
          (fun s -> expect "fresh scenario run" ~got:(scenario_digest s) ~want)
          (attempt "fresh scenario run" (fun () ->
               Synth.run_scenarios ~options:optsn config soc vi ~scenarios))
      | _ ->
        Option.iter
          (fun r -> expect "fresh run" ~got:(digest r) ~want)
          (attempt "fresh run" (fun () -> Synth.run ~options:optsn config soc vi)))
    !checks;
  (* the fresh-process RSS child replays session 0's spec edits *)
  let spec_edits =
    List.filter_map
      (fun (_, d) -> if Delta.is_scenario_delta d then None else Some d)
      (Gen.session_chain ~seed ~session:0 base)
  in
  let delta_file = Filename.concat workdir "session0.json" in
  Out_channel.with_open_text delta_file (fun oc ->
      output_string oc (Delta.list_to_string spec_edits));
  let gated, raw =
    timings "edit-session"
      [
        ("setup_s", "s", Stats.median !setups);
        ("cold_ms", "ms", p10 (get "dirty"));
        ("warm_ms", "ms", p10 (get "clean"));
      ]
  in
  {
    metrics = gated @ [ m "best_power_mw" "mW" (mean !first_powers) ];
    report =
      [
        describe "edit-session opening sweep jobs=1" (get "opening");
        describe "edit-session dirty rerun" (get "dirty");
        describe "edit-session clean rerun" (get "clean");
        describe "edit-session rescore" (get "rescore");
        Printf.sprintf "edit-session sessions: %d, fresh-run checks: %d" !session
          (List.length !checks);
      ]
      @ raw;
    rss_argvs =
      List.init 3 (fun _ ->
          [ exe; "rerun"; "--spec"; file; "--protect"; "--delta"; delta_file; "--jobs"; "1"; "-q" ]);
    traced = [ (base, opts1) ];
    ops = Hashtbl.fold (fun _ l acc -> acc + List.length l) samples 0;
    daemon_counters = [];
  }

(* ---------- daemon-mix ---------- *)

type spec_ref = { text : string; want : string; power : float; cores : int; freqs : float array }

(* Timed daemon lives over which [peak_rss_mb] is taken; every run
   reaches them. *)
let rss_lives = 6

let daemon_mix ~seed ~seconds ~workdir ~exe =
  let conns = nproc in
  (* in-process references, in parallel; an infeasible draw is replaced
     by the same index in a disjoint range, deterministically *)
  let resolve id =
    let rec go index =
      let b = Gen.small ~seed ~index in
      let soc = b.Spec_io.soc and vi = Gen.vi_of b in
      match Synth.run ~options:{ Synth.Options.default with domains = Some 1 } config soc vi with
      | r ->
        {
          text = Spec_io.to_string b;
          want = digest r;
          power = best_power_mw r;
          cores = Soc_spec.core_count soc;
          freqs = Array.map (fun c -> c.Noc_spec.Core_spec.freq_mhz) soc.Soc_spec.cores;
        }
      | exception (Synth.No_feasible_design _ | Noc_synthesis.Freq_assign.Infeasible _) ->
        if index > id + 100_000_000 then failwith "no feasible inline spec"
        else go (index + 1_000_000)
    in
    go id
  in
  let specs = Hashtbl.create 256 in
  let spec i = Hashtbl.find specs i in
  let prepare epoch =
    let ids =
      List.concat_map (fun conn -> Gen.computed_ids ~conns ~conn ~epoch) (List.init conns Fun.id)
    in
    List.iter2 (Hashtbl.replace specs) ids (Pool.parallel_map ~domains:nproc resolve ids);
    tally.attempted <- tally.attempted + List.length ids;
    Memo.clear_all ()
  in
  let socket = Filename.concat workdir "d.sock" in
  let store = Filename.concat workdir "store" in
  let log = Filename.concat workdir "daemon.log" in
  let start () = Daemon.start ~exe ~socket ~store ~workers:conns ~log in
  let request_of = function
    | Gen.Computed i | Gen.Store i | Gen.Memo i ->
      [ ("op", Json.String "synth"); ("spec", Json.String (spec i).text) ]
    | Gen.Alias (i, d) ->
      [
        ("op", Json.String "rerun");
        ("spec", Json.String (spec i).text);
        ("deltas", Json.List [ Delta.to_json d ]);
      ]
  in
  let rtt = Hashtbl.create 4 and server = Hashtbl.create 4 in
  let add tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  let get tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  let setups = ref [] and timed_s = ref 0.0 and answers = ref 0 in
  let hwms = ref [] in
  let remote = Hashtbl.create 64 in
  let live = ref None in
  Fun.protect ~finally:(fun () -> Option.iter Daemon.kill !live) @@ fun () ->
  Calib.reset ();
  let deadline = now () +. float_of_int seconds in
  let epoch = ref 0 and finished = ref false in
  while not !finished do
    let epoch = (incr epoch; !epoch - 1) in
    prepare epoch;
    for _ = 1 to 5 do
      Calib.probe ()
    done;
    let d, ready_s = start () in
    live := Some d;
    if epoch > 0 then setups := ready_s :: !setups;
    let schedules =
      Array.init conns (fun conn ->
          Array.of_list
            (Gen.epoch_schedule ~seed ~conns ~conn ~epoch
               ~spec_cores:(fun i -> (spec i).cores)
               ~spec_freq:(fun i c -> (spec i).freqs.(c))))
    in
    let lines = Array.map (Array.map (fun r -> Daemon.request_line (request_of r))) schedules in
    let t0 = now () in
    let got =
      Trace.new_op ();
      Trace.span "serve" "closed_loop" (fun () -> Daemon.closed_loop d lines)
    in
    let dt = now () -. t0 in
    let aliases = ref 0 in
    Array.iteri
      (fun c answers_c ->
        List.iter
          (fun (a : Daemon.answer) ->
            tally.attempted <- tally.attempted + 1;
            let req = schedules.(c).(a.Daemon.item) in
            let kind = Gen.source_name req in
            let i = match req with Gen.Computed i | Gen.Store i | Gen.Memo i | Gen.Alias (i, _) -> i in
            let want_source = if kind = "alias" then "memo" else kind in
            let status = Daemon.str "status" a.Daemon.response in
            if kind = "alias" then incr aliases;
            if status <> "ok" then begin
              tally.failed <- tally.failed + 1;
              problem "%s request answered %s: %s" kind status
                (Daemon.str "error" a.Daemon.response)
            end
            else begin
              if Daemon.str "source" a.Daemon.response <> want_source then begin
                tally.failed <- tally.failed + 1;
                problem "%s request answered from %s" kind (Daemon.str "source" a.Daemon.response)
              end;
              expect (kind ^ " answer")
                ~got:(Daemon.str "result_digest" a.Daemon.response)
                ~want:(spec i).want;
              if epoch > 0 then begin
                add rtt kind (Int64.to_float a.Daemon.rtt_ns /. 1e6);
                add server kind (float_of_int (Daemon.int "elapsed_ns" a.Daemon.response) /. 1e6)
              end
            end)
          answers_c)
      got;
    let metrics =
      Option.value ~default:Json.Null
        (Json.member "metrics" (Daemon.call d [ ("op", Json.String "metrics") ]))
    in
    let counters = Option.value ~default:Json.Null (Json.member "counters" metrics) in
    if epoch > 0 then begin
      let bump k v =
        Hashtbl.replace remote k (v +. Option.value ~default:0.0 (Hashtbl.find_opt remote k))
      in
      (match counters with
      | Json.Obj kvs ->
        List.iter (fun (k, v) -> match v with Json.Int n -> bump k (float_of_int n) | _ -> ()) kvs
      | _ -> ());
      match Json.member "timers_ns" metrics with
      | Some (Json.Obj kvs) ->
        List.iter
          (fun (k, v) ->
            bump (k ^ ".total_ns") (float_of_int (Daemon.int "total_ns" v));
            bump (k ^ ".count") (float_of_int (Daemon.int "count" v)))
          kvs
      | _ -> ()
    end;
    if Daemon.int "serve.alias_answers" counters <> !aliases then
      problem "epoch %d: %d alias answers counted, %d sent" epoch
        (Daemon.int "serve.alias_answers" counters) !aliases;
    if epoch > 0 then begin
      timed_s := !timed_s +. dt;
      answers := !answers + Array.fold_left (fun n a -> n + List.length a) 0 got
    end;
    (* A life's peak RSS grows with the store it starts on, so the metric
       is the mean peak over the same first [rss_lives] timed lives in
       every run: a fixed amount of work, however many lives fit. *)
    if epoch > 0 then hwms := Daemon.vm_hwm_mb d.Daemon.pid :: !hwms;
    finished := epoch >= rss_lives && now () >= deadline;
    Daemon.stop d;
    live := None
  done;
  let epochs = !epoch - 1 in
  (* more restarts on the populated store, for the set-up median *)
  for _ = 1 to 5 do
    let d, ready_s = start () in
    live := Some d;
    setups := ready_s :: !setups;
    Daemon.stop d;
    live := None
  done;
  let report =
    List.map (fun k -> describe ("daemon-mix " ^ k ^ " round trip") (get rtt k))
      [ "computed"; "store"; "memo"; "alias" ]
    @ List.map (fun k -> describe ("daemon-mix " ^ k ^ " server time") (get server k))
        [ "computed"; "store"; "memo"; "alias" ]
    @ [
        Printf.sprintf "daemon-mix answers_per_s: %.1f (%d answers in %.3f s, %d epochs)"
          (float_of_int !answers /. !timed_s) !answers !timed_s epochs;
        Printf.sprintf "daemon-mix store_ms %.3f alias_ms %.3f"
          (p10 (get rtt "store")) (p10 (get rtt "alias"));
        Printf.sprintf "daemon-mix VmHWM per life: %s MB"
          (String.concat ", " (List.rev_map (Printf.sprintf "%.1f") !hwms));
      ]
  in
  let gated, raw =
    timings "daemon-mix"
      [
        ("setup_s", "s", Stats.median !setups);
        (* computed answers span 20-40-core specs whose cost differs
           tenfold; their p10 is set by the few smallest specs, whose
           difficulty follows the seed, so this one timing is a median *)
        ("cold_ms", "ms", Stats.median (get rtt "computed"));
        ("warm_ms", "ms", p10 (get rtt "memo"));
      ]
  in
  {
    metrics =
      gated
      @ [
        (* over the specs of the first three daemon lives, which every run
           reaches, so the figure does not depend on how many lives fit *)
        m "best_power_mw" "mW"
          (mean
             (List.concat_map
                (fun epoch ->
                  List.concat_map
                    (fun conn ->
                      List.map (fun i -> (spec i).power) (Gen.computed_ids ~conns ~conn ~epoch))
                    (List.init conns Fun.id))
                [ 0; 1; 2 ]));
        m "peak_rss_mb" "MB"
          (mean (List.filteri (fun i _ -> i < rss_lives) (List.rev !hwms)));
      ];
    report = report @ raw;
    rss_argvs = [];
    traced =
      List.filter_map
        (fun s ->
          match Spec_io.parse s.text with
          | Ok b -> Some (b, { Synth.Options.default with domains = Some 1 })
          | Error _ -> None)
        [ spec 0; spec 1 ];
    ops = !answers;
    daemon_counters = List.of_seq (Hashtbl.to_seq remote);
  }

