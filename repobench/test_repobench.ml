(* The benchmark's own contract: its inputs are pure functions of the
   seed, its 128-core profile copy cannot drift from the repo's d128, its
   edit chains stay in their classes, and its order statistics are
   right.  No synthesis runs here. *)

module Gen = Repobench.Gen
module Stats = Repobench.Stats
module Spec_io = Noc_spec.Spec_io
module Delta = Noc_spec.Delta
module Bench_case = Noc_benchmarks.Bench_case

let d48 = Gen.bundle_of_case (Bench_case.find "d48")

let render_request = function
  | Gen.Computed i -> Printf.sprintf "computed %d" i
  | Gen.Store i -> Printf.sprintf "store %d" i
  | Gen.Memo i -> Printf.sprintf "memo %d" i
  | Gen.Alias (i, d) -> Printf.sprintf "alias %d %s" i (Delta.list_to_string [ d ])

let schedule ~seed ~conn ~epoch =
  Gen.epoch_schedule ~seed ~conns:2 ~conn ~epoch
    ~spec_cores:(fun _ -> 20)
    ~spec_freq:(fun i c -> float_of_int (100 + i + c))

let chain_text ~seed ~session =
  Gen.session_chain ~seed ~session d48 |> List.map snd |> Delta.list_to_string

let test_pure () =
  List.iter
    (fun seed ->
      let spec () = Spec_io.to_string (Gen.d128 ~seed) in
      Alcotest.(check string) "d128 spec" (spec ()) (spec ());
      let small () = Spec_io.to_string (Gen.small ~seed ~index:7) in
      Alcotest.(check string) "inline spec" (small ()) (small ());
      Alcotest.(check string) "edit chain" (chain_text ~seed ~session:3)
        (chain_text ~seed ~session:3);
      let sched () = List.map render_request (schedule ~seed ~conn:1 ~epoch:2) in
      Alcotest.(check (list string)) "schedule" (sched ()) (sched ()))
    [ 0; 1; 42 ];
  Alcotest.(check bool) "seeds differ" true
    (Spec_io.to_string (Gen.d128 ~seed:1) <> Spec_io.to_string (Gen.d128 ~seed:2));
  Alcotest.(check bool) "chains differ" true
    (chain_text ~seed:1 ~session:0 <> chain_text ~seed:2 ~session:0)

let test_d128_copy () =
  let repo = Gen.bundle_of_case (Bench_case.find "d128") in
  let copy = Gen.d128 ~seed:Gen.d128_seed in
  Alcotest.(check bool) "equal bundle" true (Spec_io.equal_bundle repo copy);
  Alcotest.(check string) "same text" (Spec_io.to_string repo) (Spec_io.to_string copy)

(* Clean edits leave every synthesis stage clean, dirty edits dirty some
   stage, rescore edits only touch scenarios; each applies in turn. *)
let test_chain_classes () =
  List.iter
    (fun seed ->
      for session = 0 to 5 do
        let chain = Gen.session_chain ~seed ~session d48 in
        let classes = List.map fst chain in
        List.iter
          (fun (cls, n) ->
            Alcotest.(check int) "composition" n
              (List.length (List.filter (( = ) cls) classes)))
          Gen.session_mix;
        ignore
          (List.fold_left
             (fun ((soc, vi, _) as state) (cls, d) ->
               (match cls with
               | Gen.Rescore -> Alcotest.(check bool) "scenario delta" true (Delta.is_scenario_delta d)
               | Gen.Clean | Gen.Dirty ->
                 let clean = Delta.synthesis_clean (Delta.dirty_of (soc, vi) d) in
                 Alcotest.(check bool) (Gen.class_name cls) (cls = Gen.Clean) clean);
               Delta.apply_bundle state d)
             (d48.Spec_io.soc, Gen.vi_of d48, d48.Spec_io.scenarios)
             chain)
      done)
    [ 0; 1; 2; 3 ]

(* Memo and alias requests name specs the connection touched earlier in
   the same epoch; store requests name the previous epoch's specs. *)
let test_schedule () =
  let conns = 2 in
  for conn = 0 to conns - 1 do
    for epoch = 0 to 3 do
      let items = schedule ~seed:5 ~conn ~epoch in
      let count k = List.length (List.filter (fun r -> Gen.source_name r = k) items) in
      List.iter
        (fun (k, n) -> Alcotest.(check int) k (if epoch = 0 && k <> "computed" then 0 else n) (count k))
        Gen.epoch_mix;
      let previous =
        if epoch = 0 then [] else Gen.computed_ids ~conns ~conn ~epoch:(epoch - 1)
      in
      let fresh = Gen.computed_ids ~conns ~conn ~epoch in
      ignore
        (List.fold_left
           (fun touched r ->
             match r with
             | Gen.Computed i ->
               Alcotest.(check bool) "fresh id" true (List.mem i fresh);
               i :: touched
             | Gen.Store i ->
               Alcotest.(check bool) "stored id" true (List.mem i previous);
               i :: touched
             | Gen.Memo i | Gen.Alias (i, _) ->
               Alcotest.(check bool) "touched id" true (List.mem i touched);
               touched)
           [] items)
    done
  done

let close = Alcotest.float 1e-9

let test_stats () =
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p10" 1.9 (Stats.percentile 0.1 ten);
  Alcotest.check close "p0" 1.0 (Stats.percentile 0.0 ten);
  Alcotest.check close "p100" 10.0 (Stats.percentile 1.0 ten);
  Alcotest.check close "median even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "median one" 7.0 (Stats.median [ 7.0 ]);
  let q, _ = Stats.tail (List.init 100 float_of_int) in
  Alcotest.check close "tail of 100" 0.9 q;
  let q, _ = Stats.tail (List.init 1000 float_of_int) in
  Alcotest.check close "tail of 1000" 0.99 q;
  let q, _ = Stats.tail [ 1.0; 2.0 ] in
  Alcotest.check close "tail of 2" 0.5 q

let () =
  Alcotest.run "repobench"
    [
      ( "inputs",
        [
          Alcotest.test_case "pure functions of the seed" `Quick test_pure;
          Alcotest.test_case "d128 profile copy" `Quick test_d128_copy;
          Alcotest.test_case "edit chain classes" `Quick test_chain_classes;
          Alcotest.test_case "daemon schedules" `Quick test_schedule;
        ] );
      ("stats", [ Alcotest.test_case "percentiles and tails" `Quick test_stats ]);
    ]
