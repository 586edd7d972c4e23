(* The traced run: per-layer metrics of one workload, measured outside-in.

   1. The workload runs twice for a third of the budget each, untraced and
      then with spans around every operation; the ratio of their gated timings
      is the tracing overhead, and the second pass's counters give the
      per-operation cache and store traffic.
   2. The per-candidate pipeline of [Synth.run] is replayed on the
      workload's traced specs by calling each layer's public function
      directly, inside spans.  The replay must reproduce [Synth.run]'s
      result digest, or the run is incorrect.
   3. Microbenchmarks time the layers the replay cannot isolate: memo
      lookups, metric bumps, pool spawns, codec, store, spec parsing,
      scenario scoring, invalidation; GC and CPU figures come from one
      sweep each at jobs=1 and jobs=nproc.
   4. A short daemon session on the traced spec times the serve layer per
      answer source. *)

module W = Workloads
module Synth = Noc_synthesis.Synth
module Config = Noc_synthesis.Config
module Freq_assign = Noc_synthesis.Freq_assign
module Switch_alloc = Noc_synthesis.Switch_alloc
module Path_alloc = Noc_synthesis.Path_alloc
module Topology = Noc_synthesis.Topology
module DP = Noc_synthesis.Design_point
module Verify = Noc_synthesis.Verify
module Placer = Noc_floorplan.Placer
module Anneal = Noc_floorplan.Anneal
module Vcg = Noc_spec.Vcg
module Vi = Noc_spec.Vi
module Soc_spec = Noc_spec.Soc_spec
module Flow = Noc_spec.Flow
module Delta = Noc_spec.Delta
module Scenario = Noc_spec.Scenario
module Spec_io = Noc_spec.Spec_io
module Partition_cache = Noc_cache.Partition_cache
module Memo = Noc_cache.Memo
module Store = Noc_cache.Store
module Metrics = Noc_exec.Metrics
module Pool = Noc_exec.Pool
module Json = Noc_exec.Json
module Codec = W.Codec

let config = W.config
let span = Trace.span
let time_ms f =
  let t0 = Metrics.now_ns () in
  let v = f () in
  (Int64.to_float (Int64.sub (Metrics.now_ns ()) t0) /. 1e6, v)

let median_ms reps f = Stats.median (List.init reps (fun _ -> fst (time_ms f)))
let safe_median = function [] -> 0.0 | xs -> Stats.median xs

(* ---------- 2. the outside-in replay of Synth.run ---------- *)

type replay = {
  result : Synth.result;
  kway_miss_ms : float list;
  partition_hits : int;
  partition_calls : int;
  stats : Path_alloc.stats list;
}

let by_bandwidth a b =
  match compare b.Flow.bandwidth_mbps a.Flow.bandwidth_mbps with
  | 0 -> compare (a.Flow.src, a.Flow.dst) (b.Flow.src, b.Flow.dst)
  | c -> c

(* Mirrors [Synth.run] with the memo tables cold and [prune] off: the
   same candidate enumeration, the same calls in the same order. *)
let replay soc vi (o : Synth.Options.t) =
  Memo.clear_all ();
  let protect = o.Synth.Options.protect and cache = o.Synth.Options.cache in
  let engine = o.Synth.Options.routing and seed = o.Synth.Options.seed in
  Trace.new_op ();
  let clocks = span "core.freq_assign" "assign" (fun () -> Freq_assign.assign config soc vi) in
  let plan = span "floorplan" "place" (fun () -> Placer.place soc vi) in
  let plan =
    if o.Synth.Options.anneal then
      span "floorplan" "anneal" (fun () -> Anneal.improve ~seed soc vi plan)
    else plan
  in
  let vcgs = span "spec" "vcg" (fun () -> Vcg.build_all ~alpha:config.Config.alpha soc vi) in
  let digests = Array.map (fun v -> Partition_cache.graph_digest v.Vcg.graph) vcgs in
  let kway_miss_ms = ref [] and hits = ref 0 and calls = ref 0 in
  let partition ~island ~parts ~max_block_weight g =
    let misses = Metrics.counter_value "cache.partition.misses" in
    let ms, p =
      time_ms (fun () ->
          span "partition" "kway" (fun () ->
              Partition_cache.partition ~digest:digests.(island) ~seed:(seed + island)
                ~parts ~max_block_weight g))
    in
    incr calls;
    if Metrics.counter_value "cache.partition.misses" > misses then
      kway_miss_ms := ms :: !kway_miss_ms
    else incr hits;
    p
  in
  let sizes = Vi.island_sizes vi in
  let max_size = Array.fold_left max 1 sizes in
  let indirect_max =
    if soc.Soc_spec.allow_intermediate_island && vi.Vi.islands > 1 then
      config.Config.max_indirect_switches
    else 0
  in
  let schedules =
    let rec collect extra last acc =
      if extra > max_size then List.rev acc
      else
        let counts =
          Array.mapi
            (fun island size -> min (clocks.(island).Freq_assign.min_switches + extra) size)
            sizes
        in
        if extra > 0 && counts = last then List.rev acc
        else collect (extra + 1) counts (counts :: acc)
    in
    collect 0 [||] []
  in
  let candidates =
    List.concat_map
      (fun counts -> List.init (indirect_max + 1) (fun k -> (counts, k)))
      schedules
  in
  let stats = ref [] in
  let evaluate (switch_counts, indirect_count) =
    Trace.new_op ();
    let topo =
      span "core.switch_alloc" "build" (fun () ->
          Switch_alloc.build ~seed ~strategy:o.Synth.Options.assignment_strategy ~partition
            config soc vi ~plan ~clocks ~vcgs ~switch_counts ~indirect_count)
    in
    match
      span "core.path_alloc" "route_all" (fun () ->
          Path_alloc.route_all ~cache ~engine config soc topo ~clocks)
    with
    | Error _ -> None
    | Ok st ->
      stats := st :: !stats;
      let recovered = st.Path_alloc.ripups > 0 || st.Path_alloc.restarts > 0 in
      let protected_ok =
        (not protect)
        ||
        let session = Path_alloc.session ~cache ~engine config topo ~clocks in
        List.for_all
          (fun flow ->
            span "core.path_alloc" "route_backup" (fun () ->
                Result.is_ok (Path_alloc.route_backup session flow)))
          (List.sort by_bandwidth soc.Soc_spec.flows)
      in
      if not protected_ok then None
      else begin
        Topology.clear_journal topo;
        let point () =
          span "core.design_point" "evaluate" (fun () -> DP.evaluate config soc topo ~clocks)
        in
        if recovered || protect then
          match
            span "core.verify" "check_all" (fun () ->
                Verify.check_all ~require_backups:protect config soc vi topo)
          with
          | Ok () -> Some (recovered, point ())
          | Error _ -> None
        else Some (false, point ())
      end
  in
  let evaluated = List.filter_map evaluate candidates in
  let points = List.map snd evaluated in
  let result =
    {
      Synth.points;
      plan;
      clocks;
      candidates_tried = List.length candidates;
      candidates_feasible = List.length points;
      candidates_recovered = List.length (List.filter fst evaluated);
    }
  in
  { result; kway_miss_ms = !kway_miss_ms; partition_hits = !hits; partition_calls = !calls;
    stats = !stats }

(* ---------- 3. microbenchmarks ---------- *)

(* ns per call of [f] when [domains] domains run it [k] times each. *)
let per_call_ns ~domains ~k f =
  let body () = for i = 1 to k do f i done in
  let t0 = Metrics.now_ns () in
  if domains = 1 then body ()
  else List.iter Domain.join (List.init domains (fun _ -> Domain.spawn body));
  Int64.to_float (Int64.sub (Metrics.now_ns ()) t0) /. float_of_int k

let memo_find_ns ~domains =
  let t = Memo.create "repobench.probe" in
  for i = 0 to 1023 do ignore (Memo.find_or_add t i (fun () -> i)) done;
  let ns = per_call_ns ~domains ~k:200_000 (fun i -> ignore (Memo.find_or_add t (i land 1023) (fun () -> i))) in
  Memo.unregister t;
  ns

let incr_ns ~domains = per_call_ns ~domains ~k:200_000 (fun _ -> Metrics.incr "repobench.probe")

let default_scenarios soc vi =
  let cores = Soc_spec.core_count soc in
  let low = List.filter (fun c -> vi.Vi.of_core.(c) <= vi.Vi.islands / 2) (List.init cores Fun.id) in
  [
    Scenario.make ~name:"full" ~used:(List.init cores Fun.id) ~cores ~duty:0.4;
    Scenario.make ~name:"half" ~used:low ~cores ~duty:0.4;
  ]

(* ---------- 4. the serve layer ---------- *)

let serve_probe ~workdir ~exe (b : Spec_io.bundle) (o : Synth.Options.t) ~want =
  let socket = Filename.concat workdir "p.sock" and store = Filename.concat workdir "probe-store" in
  let log = Filename.concat workdir "probe.log" in
  let text = Spec_io.to_string b in
  let base =
    [ ("spec", Json.String text) ]
    @ if o.Synth.Options.protect then [ ("protect", Json.Bool true) ] else []
  in
  let server = Hashtbl.create 4 and transport = Hashtbl.create 4 in
  let add tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  let depth = ref [] and in_flight = ref [] in
  let live = ref None in
  let ask d source fields =
    W.tally.W.attempted <- W.tally.W.attempted + 1;
    let rtt, r = time_ms (fun () -> Daemon.call d fields) in
    let server_ms = float_of_int (Daemon.int "elapsed_ns" r) /. 1e6 in
    let want_source = if source = "alias" then "memo" else source in
    if Daemon.str "status" r <> "ok" || Daemon.str "source" r <> want_source then begin
      W.tally.W.failed <- W.tally.W.failed + 1;
      W.problem "serve probe %s answered %s from %s" source (Daemon.str "status" r)
        (Daemon.str "source" r)
    end
    else W.expect ("serve probe " ^ source) ~got:(Daemon.str "result_digest" r) ~want;
    add server source server_ms;
    add transport source (rtt -. server_ms);
    let m = Daemon.call d [ ("op", Json.String "metrics") ] in
    depth := float_of_int (Daemon.int "queue_depth" m) :: !depth;
    in_flight := float_of_int (Daemon.int "in_flight" m) :: !in_flight
  in
  let synth = ("op", Json.String "synth") :: base in
  let counters = ref Json.Null in
  Fun.protect ~finally:(fun () -> Option.iter Daemon.kill !live) (fun () ->
      let d, _ = Daemon.start ~exe ~socket ~store ~workers:W.nproc ~log in
      live := Some d;
      ask d "computed" synth;
      for i = 1 to 9 do
        ask d "memo" synth;
        let core = i mod Soc_spec.core_count b.Spec_io.soc in
        ask d "alias"
          (("op", Json.String "rerun")
          :: ("deltas", Json.List [ Delta.to_json (Delta.Set_core_freq { core; freq_mhz = 100.0 +. float_of_int i }) ])
          :: base)
      done;
      Daemon.stop d;
      let d, _ = Daemon.start ~exe ~socket ~store ~workers:W.nproc ~log in
      live := Some d;
      ask d "store" synth;
      counters :=
        Option.value ~default:Json.Null
          (Option.bind (Json.member "metrics" (Daemon.call d [ ("op", Json.String "metrics") ]))
             (Json.member "counters"));
      Daemon.stop d;
      live := None);
  let get tbl k = safe_median (Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  List.concat_map
    (fun s ->
      [ (Printf.sprintf "serve.server_ms.%s" s, get server s, "ms");
        (Printf.sprintf "serve.transport_ms.%s" s, get transport s, "ms") ])
    [ "computed"; "store"; "memo"; "alias" ]
  @ [
      ("serve.queue_depth", W.mean !depth, "count");
      ("serve.in_flight", W.mean !in_flight, "count");
      ("serve.errors", float_of_int (Daemon.int "serve.errors" !counters), "count");
    ]

(* ---------- the whole traced run ---------- *)

let counter_delta before after name =
  let get l = Option.value ~default:0 (List.assoc_opt name l) in
  float_of_int (get after - get before)

let traced ~seed ~seconds ~workdir ~exe ~(run : seed:int -> seconds:int -> workdir:string -> W.outcome) =
  let sub name =
    let d = Filename.concat workdir name in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    d
  in
  let part = max 1 (seconds / 3) in
  let plain = run ~seed ~seconds:part ~workdir:(sub "untraced") in
  let counters0 = Metrics.counters () and timers0 = Metrics.timers () in
  Trace.enabled := true;
  let traced = run ~seed ~seconds:part ~workdir:(sub "traced") in
  Trace.enabled := false;
  let counters1 = Metrics.counters () and timers1 = Metrics.timers () in
  let pass_list = !Trace.spans in
  let pass_spans = List.length pass_list in
  (* counters and timers of the traced pass: the daemon's when the
     workload ran one (this process then only computed references),
     else this process's *)
  let remote = traced.W.daemon_counters <> [] in
  let pass name =
    if remote then Option.value ~default:0.0 (List.assoc_opt name traced.W.daemon_counters)
    else counter_delta counters0 counters1 name
  in
  let per_op name = pass name /. float_of_int (max 1 traced.W.ops) in
  let timer name =
    let find l = List.find_opt (fun (n, _, _) -> n = name) l in
    let total l = match find l with Some (_, ns, _) -> Int64.to_float ns | None -> 0.0 in
    let count l = match find l with Some (_, _, c) -> float_of_int c | None -> 0.0 in
    let ns, n =
      if remote then (pass (name ^ ".total_ns"), pass (name ^ ".count"))
      else (total timers1 -. total timers0, count timers1 -. count timers0)
    in
    if n = 0.0 then 0.0 else ns /. n /. 1e6
  in
  (* the precise overhead: what one span costs when recording *)
  let span_ns =
    let saved = !Trace.spans in
    Trace.enabled := true;
    let ns = per_call_ns ~domains:1 ~k:100_000 (fun _ -> span "probe" "empty" ignore) in
    Trace.enabled := false;
    Trace.spans := saved;
    ns
  in
  let metric_of (o : W.outcome) name =
    (List.find (fun (x : W.metric) -> x.W.name = name) o.W.metrics).W.value
  in
  let overhead name = ((metric_of traced name /. metric_of plain name) -. 1.0) *. 100.0 in
  (* the replay, on every traced spec *)
  let first = ref None in
  Trace.spans := [];
  Trace.enabled := true;
  let replays =
    List.map
      (fun ((b : Spec_io.bundle), (o : Synth.Options.t)) ->
        let soc = b.Spec_io.soc and vi = Gen.vi_of b in
        let rp = replay soc vi o in
        Trace.enabled := false;
        Memo.clear_all ();
        let o1 = { o with Synth.Options.domains = Some 1 } in
        (match W.attempt "replay reference" (fun () -> Synth.run ~options:o1 config soc vi) with
        | Some r ->
          W.expect "outside-in replay" ~got:(W.digest rp.result) ~want:(W.digest r);
          if !first = None then first := Some (b, o, r)
        | None -> ());
        Trace.enabled := true;
        rp)
      traced.W.traced
  in
  Trace.enabled := false;
  let replay_self = Trace.self_ns () in
  let n_replays = float_of_int (List.length replays) in
  let self layer =
    Option.value ~default:0.0 (List.assoc_opt layer replay_self) /. n_replays /. 1e6
  in
  let spans layer name = Trace.durations_ms layer name in
  let b, o, r = Option.get !first in
  let soc = b.Spec_io.soc and vi = Gen.vi_of b in
  let protect = o.Synth.Options.protect in
  (* verify cost per point, on every point of the traced result *)
  let verify_ms =
    List.map
      (fun p ->
        fst (time_ms (fun () -> Verify.check_all ~require_backups:protect config soc vi p.DP.topology)))
      r.Synth.points
  in
  (* backup routing: the replay's own calls when protected, else one
     backup per flow on a copy of the best point *)
  let backup_ms =
    if protect then spans "core.path_alloc" "route_backup"
    else
      let topo = Topology.copy (Synth.best_power r).DP.topology in
      let session = Path_alloc.session config topo ~clocks:r.Synth.clocks in
      List.map
        (fun f -> fst (time_ms (fun () -> ignore (Path_alloc.route_backup session f))))
        (List.sort by_bandwidth soc.Soc_spec.flows)
  in
  let stats = List.concat_map (fun rp -> rp.stats) replays in
  let per_candidate f =
    float_of_int (List.fold_left (fun a s -> a + f s) 0 stats)
    /. float_of_int (max 1 (List.length stats))
  in
  let kway = List.concat_map (fun rp -> rp.kway_miss_ms) replays in
  let p_hits = List.fold_left (fun a rp -> a + rp.partition_hits) 0 replays in
  let p_calls = List.fold_left (fun a rp -> a + rp.partition_calls) 0 replays in
  (* GC at jobs=1 and CPU use at jobs=nproc, one cold sweep each *)
  Memo.clear_all ();
  let g0 = Gc.quick_stat () in
  let r1 = Synth.run ~options:{ o with Synth.Options.domains = Some 1 } config soc vi in
  let g1 = Gc.quick_stat () in
  let cand = float_of_int r1.Synth.candidates_tried in
  Memo.clear_all ();
  let cpu0 = Unix.times () and wall0 = W.now () in
  let g2 = Gc.quick_stat () in
  let rn = Synth.run ~options:{ o with Synth.Options.domains = Some W.nproc } config soc vi in
  let g3 = Gc.quick_stat () in
  let cpu1 = Unix.times () and wall1 = W.now () in
  W.expect "jobs=nproc sweep" ~got:(W.digest rn) ~want:(W.digest r1);
  let cpu t = t.Unix.tms_utime +. t.Unix.tms_stime in
  (* codec, store and spec parsing on this workload's result and spec *)
  let payload = Codec.encode r in
  let store_dir = Filename.concat workdir "layer-store" in
  let store = Store.open_store ~tag:Codec.tag store_dir in
  let add_ms = List.init 20 (fun i -> fst (time_ms (fun () -> Store.add store (Printf.sprintf "k%d" i) payload))) in
  let find_ms = List.init 20 (fun i -> fst (time_ms (fun () -> ignore (Store.find store (Printf.sprintf "k%d" i))))) in
  let text = Spec_io.to_string b in
  let scenarios = if b.Spec_io.scenarios = [] then default_scenarios soc vi else b.Spec_io.scenarios in
  let flow = List.hd soc.Soc_spec.flows in
  let dirty =
    Delta.Set_flow_bandwidth
      { src = flow.Flow.src; dst = flow.Flow.dst; bandwidth_mbps = flow.Flow.bandwidth_mbps *. 0.9 }
  in
  let chain =
    Gen.session_chain ~seed ~session:0 { b with Spec_io.scenarios }
    |> List.map snd
    |> List.filter (fun d -> not (Delta.is_scenario_delta d))
  in
  let serve = serve_probe ~workdir ~exe b o ~want:(W.digest r) in
  let metrics =
    [
      ("trace.overhead_pct.cold", overhead "cold_ms", "%");
      ("trace.overhead_pct.warm", overhead "warm_ms", "%");
      ("trace.spans", float_of_int pass_spans, "count");
      ("trace.span_ns", span_ns, "ns");
      ("replay.specs", n_replays, "count");
    ]
    @ List.map
        (fun l -> ("replay.self_ms." ^ l, self l, "ms"))
        [ "core.freq_assign"; "floorplan"; "spec"; "partition"; "core.switch_alloc";
          "core.path_alloc"; "core.verify"; "core.design_point" ]
    @ [
        ("path_alloc.route_all_ms", timer "path_alloc.route_all", "ms");
        ( "path_alloc.route_all_share",
          W.mean [ self "core.path_alloc" ]
          /. List.fold_left (fun a (_, ns) -> a +. (ns /. n_replays /. 1e6)) 0.0 replay_self,
          "share" );
        ("path_alloc.ripups", per_candidate (fun s -> s.Path_alloc.ripups), "count");
        ("path_alloc.rollbacks", per_candidate (fun s -> s.Path_alloc.rollbacks), "count");
        ("path_alloc.restarts", per_candidate (fun s -> s.Path_alloc.restarts), "count");
        ("path_alloc.reroutes", per_candidate (fun s -> s.Path_alloc.reroutes), "count");
        ("path_alloc.route_backup_ms", safe_median backup_ms, "ms");
        ("switch_alloc.build_ms", safe_median (spans "core.switch_alloc" "build"), "ms");
        ("design_point.evaluate_ms", safe_median (spans "core.design_point" "evaluate"), "ms");
        ("freq_assign.assign_ms", safe_median (spans "core.freq_assign" "assign"), "ms");
        ("floorplan.anneal_ms", safe_median (spans "floorplan" "anneal"), "ms");
        ("verify.check_all_ms", safe_median verify_ms, "ms");
        ( "verify.fail_share",
          float_of_int W.tally.W.points_failed /. float_of_int (max 1 W.tally.W.points_verified),
          "share" );
        ( "verify.fail_by_kind.timing",
          float_of_int (Option.value ~default:0 (Hashtbl.find_opt W.tally.W.kinds "timing")),
          "count" );
        ( "verify.fail_by_kind.other",
          float_of_int
            (Hashtbl.fold (fun k n a -> if k = "timing" then a else a + n) W.tally.W.kinds 0),
          "count" );
        ("partition.kway_ms", safe_median kway, "ms");
        ("cache.partition.hit_ratio", float_of_int p_hits /. float_of_int (max 1 p_calls), "share");
      ]
    @ List.concat_map
        (fun t ->
          List.map
            (fun k ->
              let name = Printf.sprintf "cache.%s.%s" t k in
              (name, per_op name, "count/op"))
            [ "hits"; "misses"; "evictions" ])
        [ "eval"; "hop_energy"; "partition"; "clocks"; "plan" ]
    @ [
        ("cache.memo.find_ns_1", memo_find_ns ~domains:1, "ns");
        ("cache.memo.find_ns_n", memo_find_ns ~domains:W.nproc, "ns");
        ( "synth.invalidate_ms",
          median_ms 5 (fun () -> Synth.invalidate ~options:o ~prev:r ~delta:[ dirty ] config soc vi),
          "ms" );
        ( "delta.dirty_chain_ms",
          median_ms 51 (fun () -> Delta.dirty_chain (soc, vi) chain),
          "ms" );
        (* on d128 no point verifies (the timing defect), so scoring ends
           in No_feasible_design; its cost up to there is still the layer's *)
        ( "scenario.score_ms",
          median_ms 5 (fun () ->
              try ignore (Synth.score_scenarios config soc vi ~scenarios r)
              with Synth.No_feasible_design _ -> ()),
          "ms" );
        ( "pool.spawn_ms",
          median_ms 51 (fun () ->
              Pool.parallel_map ~domains:W.nproc Fun.id (List.init W.nproc Fun.id)),
          "ms" );
        ("pool.cpu_per_wall", (cpu cpu1 -. cpu cpu0) /. (wall1 -. wall0), "share");
        ("metrics.incr_ns_1", incr_ns ~domains:1, "ns");
        ("metrics.incr_ns_n", incr_ns ~domains:W.nproc, "ns");
        ("gc.minor_words_per_candidate", (g1.Gc.minor_words -. g0.Gc.minor_words) /. cand, "words");
        ("gc.major_words_per_candidate", (g1.Gc.major_words -. g0.Gc.major_words) /. cand, "words");
        ( "gc.minor_collections",
          float_of_int (g3.Gc.minor_collections - g2.Gc.minor_collections),
          "count" );
        ( "gc.major_collections",
          float_of_int (g3.Gc.major_collections - g2.Gc.major_collections),
          "count" );
      ]
    @ serve
    @ [
        ("serve.shed", per_op "serve.shed", "count/op");
        ("serve.timeouts", per_op "serve.timeouts", "count/op");
        ("store.find_ms", safe_median find_ms, "ms");
        ("store.add_ms", safe_median add_ms, "ms");
        ("store.open_ms", median_ms 5 (fun () -> Store.open_store ~tag:Codec.tag store_dir), "ms");
        ("store.hits", per_op "store.hits", "count/op");
        ("store.misses", per_op "store.misses", "count/op");
        ("store.writes", per_op "store.writes", "count/op");
        ("codec.encode_ms", median_ms 11 (fun () -> Codec.encode r), "ms");
        ("codec.decode_ms", median_ms 11 (fun () -> Codec.decode payload), "ms");
        ("codec.bytes", float_of_int (String.length payload), "bytes");
        ("spec_io.parse_ms", median_ms 21 (fun () -> Spec_io.parse text), "ms");
      ]
  in
  Trace.spans := !Trace.spans @ pass_list;
  Trace.write (Filename.concat workdir "spans.jsonl");
  {
    W.metrics = List.map (fun (name, value, unit_) -> W.m name unit_ value) metrics;
    report =
      plain.W.report @ traced.W.report
      @ [
          Printf.sprintf "traced pass: %d spans; replay: %d spec(s) reproduced digest for digest"
            pass_spans (List.length replays);
        ];
    rss_argvs = [];
    traced = [];
    ops = traced.W.ops;
    daemon_counters = [];
  }
