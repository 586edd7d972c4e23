(* End-to-end bit-identity of the flat SoA + A* routing engine against
   the reference Dijkstra path it replaced.  [Synth.Options.routing]
   selects the engine; everything else — the candidate walk, the
   evaluation memo, rip-up recovery — is shared, so whole synthesis
   sweeps must agree on every saved design point and every counter, bit
   for bit.  The d26/d36 sweeps exercise the rip-up and protected-reroute
   recovery paths; crossing the engines with the per-state hop memo
   on/off guards the epoch-encoded tag scheme in [Path_alloc].

   The [Astar.run_to_const] property pins the specialized constant-floor
   entry point to the generic closure form it replaces on random
   graphs — including the no-incoming-edge case where the floor is
   [infinity]. *)

module Config = Noc_synthesis.Config
module Synth = Noc_synthesis.Synth
module DP = Noc_synthesis.Design_point
module Path_alloc = Noc_synthesis.Path_alloc
module Power = Noc_models.Power
module Bench_case = Noc_benchmarks.Bench_case
module Synth_gen = Noc_benchmarks.Synth_gen
module Astar = Noc_graph.Astar
module Dijkstra = Noc_graph.Dijkstra
module Flat = Noc_graph.Flat

let config = Config.default
let checkb = Alcotest.(check bool)

(* Full signature, not just the Pareto front: every float as stored. *)
let point_signature p =
  ( ( Power.total_mw p.DP.power,
      Power.dynamic_mw p.DP.power,
      p.DP.avg_latency_cycles,
      p.DP.total_wire_mm ),
    ( p.DP.switch_count,
      p.DP.indirect_count,
      p.DP.link_count,
      p.DP.crossing_count ) )

let result_signature (r : Synth.result) =
  ( r.Synth.candidates_tried,
    r.Synth.candidates_feasible,
    r.Synth.candidates_recovered,
    List.map point_signature r.Synth.points )

let run_spec ?(protect = false) soc vi ~engine ~cache =
  let options =
    {
      Synth.Options.default with
      Synth.Options.routing = engine;
      cache;
      protect;
      domains = Some 1;
    }
  in
  (* cold process-wide tables: identity must not lean on a warm memo *)
  Noc_cache.Memo.clear_all ();
  Synth.run ~options config soc vi

let sweep_spec ?protect soc vi ~engine ~cache =
  result_signature (run_spec ?protect soc vi ~engine ~cache)

let sweep name ~engine ~cache =
  let case = Bench_case.find name in
  sweep_spec case.Bench_case.soc case.Bench_case.default_vi ~engine ~cache

let test_engine_identity name () =
  let reference = sweep name ~engine:Path_alloc.Reference ~cache:true in
  checkb "flat sweep = reference sweep (memo on)" true
    (sweep name ~engine:Path_alloc.Flat ~cache:true = reference);
  checkb "flat sweep, tables off = reference sweep, tables on" true
    (sweep name ~engine:Path_alloc.Flat ~cache:false = reference)

let random_soc (seed, cores, islands) =
  let soc =
    Synth_gen.generate ~seed { Synth_gen.default_profile with Synth_gen.cores }
  in
  (soc, Synth_gen.random_vi ~seed ~islands soc)

(* Random SoCs: 8-16 cores over 2-5 islands, core clocks 100-600 MHz, so
   the islands run at several supplies (both sides of the
   [Tech.vdd_for_frequency] knee), with and without backup routing (the
   masked searches).  Infeasible draws must be infeasible on both
   engines. *)
let prop_random_engine_identity =
  QCheck.Test.make
    ~name:"random Synth_gen SoCs: flat sweep = reference sweep"
    ~count:12
    QCheck.(
      quad (int_bound 10_000) (int_range 8 16) (int_range 2 5) bool)
    (fun (seed, cores, islands, protect) ->
      let soc, vi = random_soc (seed, cores, islands) in
      let attempt engine =
        match sweep_spec ~protect soc vi ~engine ~cache:true with
        | r -> Ok r
        | exception Synth.No_feasible_design _ -> Error `Infeasible
        | exception Noc_synthesis.Freq_assign.Infeasible _ -> Error `No_clock
      in
      attempt Path_alloc.Flat = attempt Path_alloc.Reference)

(* ---------- run_to_const vs the generic closure form ---------- *)

let random_csr seed n density =
  let st = Random.State.make [| seed; n |] in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Random.State.float st 1.0 < density then
        edges :=
          (u, v, float_of_int (1 + Random.State.int st 20) /. 4.0) :: !edges
    done
  done;
  Flat.Csr.of_edges ~n !edges

(* The production shape: the exact min weight over edges entering the
   target, [infinity] when none exists. *)
let exact_floor csr target =
  let c = ref infinity in
  for u = 0 to Flat.Csr.node_count csr - 1 do
    Flat.Csr.iter_succ csr u (fun v w -> if v = target then c := min !c w)
  done;
  !c

(* The end-to-end comparison above only sees a factor-table rounding
   slip if it flips a route; this one compares the wire factors
   themselves, bit for bit, on every hop of every saved topology. *)
let prop_random_wire_factors =
  QCheck.Test.make
    ~name:"random Synth_gen SoCs: factor-table wire costs = model wire costs"
    ~count:8
    QCheck.(triple (int_bound 10_000) (int_range 8 16) (int_range 2 5))
    (fun draw ->
      let soc, vi = random_soc draw in
      match run_spec soc vi ~engine:Path_alloc.Flat ~cache:true with
      | exception Synth.No_feasible_design _ -> QCheck.assume_fail ()
      | exception Noc_synthesis.Freq_assign.Infeasible _ ->
        QCheck.assume_fail ()
      | r ->
        List.for_all
          (fun p ->
            let wire engine =
              Path_alloc.wire_factors engine config p.DP.topology
                ~clocks:r.Synth.clocks
            in
            wire Path_alloc.Flat = wire Path_alloc.Reference)
          r.Synth.points)

(* [run_to_const]'s protocol: the weight goes through the cell *)
let const_search arena ~n csr ~floor ~source ~target =
  let cost = Astar.cell () in
  Astar.run_to_const arena ~n
    ~successors_iter:(fun u relax ->
      Flat.Csr.iter_succ csr u (fun v w ->
          cost.Astar.cost <- w;
          relax v))
    ~cost ~floor ~source ~target

let prop_const_matches_closure =
  QCheck.Test.make
    ~name:
      "run_to_const (exact and zero floors) is bit-identical to run_to_iter \
       with the constant closure, and to Dijkstra"
    ~count:100
    QCheck.(pair (int_bound 10_000) (int_range 2 16))
    (fun (seed, n) ->
      let csr = random_csr seed n 0.3 in
      let succ u relax = Flat.Csr.iter_succ csr u relax in
      let arena = Astar.create () in
      let ok = ref true in
      for target = 0 to n - 1 do
        let reference =
          Dijkstra.run_to_iter ~n ~successors_iter:succ ~source:0 ~target
        in
        List.iter
          (fun floor ->
            let closure =
              Astar.run_to_iter arena ~n ~successors_iter:succ
                ~heuristic:(fun v -> if v = target then 0.0 else floor)
                ~source:0 ~target
            in
            let const = const_search arena ~n csr ~floor ~source:0 ~target in
            if const <> closure || const <> reference then ok := false)
          [ exact_floor csr target; 0.0 ]
      done;
      !ok)

let test_const_rejects_bad_floor () =
  let csr = random_csr 7 4 0.5 in
  let arena = Astar.create () in
  let raises floor =
    match const_search arena ~n:4 csr ~floor ~source:0 ~target:3 with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "NaN floor rejected" true (raises Float.nan);
  checkb "negative floor rejected" true (raises (-1.0));
  checkb "infinite floor accepted" false (raises infinity)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "noc_flat"
    [
      ( "engine-identity",
        List.map
          (fun name ->
            Alcotest.test_case
              (Printf.sprintf "%s: flat sweep = reference sweep" name)
              `Slow (test_engine_identity name))
          [ "d12"; "d16"; "d20"; "d26"; "d36" ]
        @ [ qt prop_random_engine_identity; qt prop_random_wire_factors ] );
      ( "astar-const",
        [
          qt prop_const_matches_closure;
          Alcotest.test_case "floor validation" `Quick
            test_const_rejects_bad_floor;
        ] );
    ]
