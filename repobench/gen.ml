(* Seeded input generators.  Every input the benchmark feeds the program
   is a pure function of the run's seed: the 128-core spec set, the
   protected d48 edit chains, and the daemon request schedules. *)

module Soc_spec = Noc_spec.Soc_spec
module Vi = Noc_spec.Vi
module Flow = Noc_spec.Flow
module Delta = Noc_spec.Delta
module Scenario = Noc_spec.Scenario
module Spec_io = Noc_spec.Spec_io
module Synth_gen = Noc_benchmarks.Synth_gen
module Bench_case = Noc_benchmarks.Bench_case

let bundle_of_case (c : Bench_case.t) =
  {
    Spec_io.soc = c.Bench_case.soc;
    vi = Some c.Bench_case.default_vi;
    scenarios = c.Bench_case.scenarios;
  }

let vi_of (b : Spec_io.bundle) =
  match b.Spec_io.vi with
  | Some vi -> vi
  | None -> Vi.single_island ~cores:(Soc_spec.core_count b.Spec_io.soc)

(* ---------- 128-core specs ---------- *)

(* A copy of lib/benchmarks/d128.ml with the seed as a parameter.  The
   test suite pins [d128 ~seed:d128_seed] to [Bench_case.find "d128"], so
   the copy cannot drift from the profile it reproduces. *)
let d128_seed = 1128
let d128_islands = 10

let d128_profile =
  {
    Synth_gen.cores = 128;
    hub_fraction = 0.1;
    pipeline_count = 8;
    max_bw_mbps = 1600.0;
    tight_latency = 20;
  }

let d128 ~seed =
  let cores = d128_profile.Synth_gen.cores in
  let soc =
    { (Synth_gen.generate ~seed d128_profile) with Soc_spec.name = "D128-scale" }
  in
  let vi = Synth_gen.random_vi ~seed ~islands:d128_islands soc in
  let cores_of pred =
    List.filter (fun c -> pred vi.Vi.of_core.(c)) (List.init cores Fun.id)
  in
  let always_on = cores_of (fun isl -> isl = 0) in
  let scenarios =
    [
      Scenario.make ~name:"peak" ~used:(List.init cores Fun.id) ~cores ~duty:0.2;
      Scenario.make ~name:"typical"
        ~used:(cores_of (fun isl -> isl <= d128_islands / 2))
        ~cores ~duty:0.5;
      Scenario.make ~name:"standby" ~used:always_on ~cores ~duty:0.2;
    ]
  in
  { Spec_io.soc; vi = Some vi; scenarios }

(* Sweep difficulty varies a lot from one seed to the next (cold sweeps
   from 0.37 s to 0.8 s at jobs=2), so the run's own spec comes with two
   fixed companions of similar cost: the repo's d128 and profile seed 5.
   Gated timings are taken over the two companions only, which every
   seed shares. *)
let d128_companions = [ d128_seed; 5 ]

let d128_set ~seed = List.map (fun s -> d128 ~seed:s) (seed :: d128_companions)

(* ---------- edit sessions on d48 ---------- *)

type edit_class = Clean | Dirty | Rescore

let class_name = function
  | Clean -> "clean"
  | Dirty -> "dirty"
  | Rescore -> "rescore"

(* Fixed composition of one session's chain; the order is seeded.  The
   counts follow from the samples each class needs in a 30 s run (see
   README.md, "How the traffic mixes are chosen"): a dirty rerun costs
   about what the session's cold opening sweep does, so 5 dirty edits put
   5/6 of the session's time into dirty samples; clean edits and rescores
   are ~100x cheaper, so 24 and 8 of them give the clean p10 a few hundred
   samples and the rescore line a p90 for ~1% of the time. *)
let session_mix = [ (Clean, 24); (Dirty, 5); (Rescore, 8) ]

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

(* Edits that keep the protected d48 design feasible: bandwidths only
   shrink, latency budgets only relax, added flows are light with a
   loose budget, and removals take back a flow this session added (or the
   lightest flow).  Core moves are left out: even light round trips
   between shutdownable islands leave the protected d48 with no feasible
   candidate in some chains. *)
let dirty_edit rng soc ~added =
  let flows = soc.Soc_spec.flows in
  let cores = Soc_spec.core_count soc in
  let has src dst =
    List.exists (fun f -> f.Flow.src = src && f.Flow.dst = dst) flows
  in
  let rec fresh_pair () =
    let src = Random.State.int rng cores and dst = Random.State.int rng cores in
    if src = dst || has src dst then fresh_pair () else (src, dst)
  in
  match Random.State.int rng 4 with
  | 0 ->
    let f = pick rng flows in
    Delta.Set_flow_bandwidth
      {
        src = f.Flow.src;
        dst = f.Flow.dst;
        bandwidth_mbps = f.Flow.bandwidth_mbps *. (0.7 +. Random.State.float rng 0.3);
      }
  | 1 ->
    let f = pick rng flows in
    Delta.Set_flow_latency
      {
        src = f.Flow.src;
        dst = f.Flow.dst;
        max_latency_cycles = f.Flow.max_latency_cycles + 1 + Random.State.int rng 4;
      }
  | 2 ->
    let src, dst = fresh_pair () in
    Delta.Add_flow
      (Flow.make ~src ~dst ~bw:(5.0 +. Random.State.float rng 45.0) ~lat:60)
  | _ ->
    let src, dst =
      match List.filter (fun (s, d) -> has s d) added with
      | [] ->
        let lightest =
          List.fold_left
            (fun a f -> if f.Flow.bandwidth_mbps < a.Flow.bandwidth_mbps then f else a)
            (List.hd flows) flows
        in
        (lightest.Flow.src, lightest.Flow.dst)
      | live -> pick rng live
    in
    Delta.Remove_flow { src; dst }

let clean_edit rng (soc, vi) =
  if Random.State.int rng 3 = 0 && vi.Vi.islands > 1 then
    let island = 1 + Random.State.int rng (vi.Vi.islands - 1) in
    Delta.Set_always_on { island; always_on = vi.Vi.shutdownable.(island) }
  else
    let core = Random.State.int rng (Soc_spec.core_count soc) in
    let f = soc.Soc_spec.cores.(core).Noc_spec.Core_spec.freq_mhz in
    Delta.Set_core_freq
      { core; freq_mhz = Float.round (f *. (0.8 +. Random.State.float rng 0.4)) }

let rescore_edit rng scenarios ~cores =
  let s = pick rng scenarios in
  let name = s.Scenario.name in
  if Random.State.bool rng then
    let others =
      List.fold_left
        (fun acc o -> if o.Scenario.name = name then acc else acc +. o.Scenario.duty)
        0.0 scenarios
    in
    let room = Float.max 0.0 (1.0 -. others) in
    let duty = Float.round (room *. (0.2 +. Random.State.float rng 0.7) *. 1000.0) /. 1000.0 in
    Delta.Set_scenario_duty { scenario = name; duty }
  else
    (* toggle a few cores in or out of the scenario's used set *)
    let used = Array.copy s.Scenario.used_cores in
    for _ = 1 to 1 + Random.State.int rng 3 do
      let c = Random.State.int rng cores in
      used.(c) <- not used.(c)
    done;
    let used =
      List.filter (fun c -> used.(c)) (List.init cores Fun.id)
    in
    let used = if used = [] then Scenario.used_list s else used in
    Delta.Set_scenario_cores { scenario = name; used }

(* One session's chain: [(class, delta)] in application order, each delta
   drawn against the bundle the previous ones produced. *)
let session_chain ~seed ~session (base : Spec_io.bundle) =
  let rng = Random.State.make [| seed; session; 48 |] in
  let classes =
    shuffle rng
      (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) session_mix)
  in
  let cores = Soc_spec.core_count base.Spec_io.soc in
  let _, chain =
    List.fold_left
      (fun ((state, added), acc) cls ->
        let soc, vi, scenarios = state in
        let delta, added =
          match cls with
          | Clean -> (clean_edit rng (soc, vi), added)
          | Rescore -> (rescore_edit rng scenarios ~cores, added)
          | Dirty ->
            (match dirty_edit rng soc ~added with
            | Delta.Add_flow f as d -> (d, (f.Flow.src, f.Flow.dst) :: added)
            | d -> (d, added))
        in
        ((Delta.apply_bundle state delta, added), (cls, delta) :: acc))
      (((base.Spec_io.soc, vi_of base, base.Spec_io.scenarios), []), [])
      classes
  in
  List.rev chain

(* ---------- daemon request schedules ---------- *)

(* Inline 20-40-core specs.  Core counts cycle through the range in a
   fixed stride, so every run sees the same size mix and only the traffic
   and island maps follow the seed. *)
let small ~seed ~index =
  let cores = 20 + (index * 8 mod 21) in
  let soc =
    {
      (Synth_gen.generate ~seed:((seed * 7919) + index)
         { Synth_gen.default_profile with Synth_gen.cores })
      with
      Soc_spec.name = Printf.sprintf "mix-%d-%d" seed index;
    }
  in
  let vi =
    Synth_gen.random_vi ~seed:((seed * 7919) + index) ~islands:(3 + (index mod 3)) soc
  in
  { Spec_io.soc; vi = Some vi; scenarios = [] }

type request =
  | Computed of int  (** cold synth of spec [i] *)
  | Store of int  (** first touch, after a restart, of a spec persisted earlier *)
  | Memo of int  (** repeat of spec [i], already answered in this daemon's life *)
  | Alias of int * Delta.t  (** clean-delta rerun on spec [i] *)

let source_name = function
  | Computed _ -> "computed"
  | Store _ -> "store"
  | Memo _ -> "memo"
  | Alias _ -> "alias"

(* Per connection and daemon life ("epoch"): this many of each source.
   Computed answers take nearly all of a life's time, so their count sets
   how many lives (restart samples for [setup_s]) fit in a run; store
   touches can only name what the previous life computed, so they match
   it; memo and alias answers cost < 5 ms and ride along in numbers that
   put hundreds of samples under their p10 (README.md, "How the traffic
   mixes are chosen"). *)
let epoch_mix = [ ("computed", 6); ("store", 6); ("memo", 16); ("alias", 8) ]
let mix_count name = List.assoc name epoch_mix

(* Spec ids of connection [conn] computed in epoch [e] (epoch 0 is the
   untimed fill that gives epoch 1 its store keys). *)
let computed_ids ~conns ~conn ~epoch =
  let n = mix_count "computed" in
  List.init n (fun k -> (((epoch * conns) + conn) * n) + k)

(* The closed-loop schedule of one connection in one epoch.  Memo and
   alias requests only name specs this connection already touched in this
   epoch, so their expected source does not depend on how the
   connections interleave. *)
let epoch_schedule ~seed ~conns ~conn ~epoch ~spec_cores ~spec_freq =
  let rng = Random.State.make [| seed; conn; epoch; 4242 |] in
  let fresh = ref (computed_ids ~conns ~conn ~epoch) in
  let stored =
    ref (if epoch = 0 then [] else computed_ids ~conns ~conn ~epoch:(epoch - 1))
  in
  let left =
    Hashtbl.of_seq
      (List.to_seq
         (if epoch = 0 then [ ("computed", mix_count "computed") ] else epoch_mix))
  in
  let touched = ref [] in
  let out = ref [] in
  let take r =
    let x = List.hd !r in
    r := List.tl !r;
    touched := x :: !touched;
    x
  in
  let available () =
    List.filter
      (fun k ->
        Hashtbl.find_opt left k |> Option.value ~default:0 > 0
        && (match k with
           | "memo" | "alias" -> !touched <> []
           | _ -> true))
      [ "computed"; "store"; "memo"; "alias" ]
  in
  let rec loop () =
    match available () with
    | [] -> ()
    | kinds ->
      let k = pick rng kinds in
      Hashtbl.replace left k (Hashtbl.find left k - 1);
      let r =
        match k with
        | "computed" -> Computed (take fresh)
        | "store" -> Store (take stored)
        | "memo" -> Memo (pick rng !touched)
        | _ ->
          let i = pick rng !touched in
          let core = Random.State.int rng (spec_cores i) in
          (* a fresh frequency per alias, so each edited key is new *)
          let freq_mhz =
            Float.round (spec_freq i core *. (0.5 +. Random.State.float rng 1.0))
            +. (float_of_int ((epoch * 1000) + List.length !out) /. 1e6)
          in
          Alias (i, Delta.Set_core_freq { core; freq_mhz })
      in
      out := r :: !out;
      loop ()
  in
  loop ();
  List.rev !out
