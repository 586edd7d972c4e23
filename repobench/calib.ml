(* Host speed calibration.  The host this benchmark was built on runs
   faster or slower for minutes at a time, and a whole run moves with it
   (README.md, "Why gated timings are scaled").  A fixed kernel that never
   calls the program is timed between the workload's operations; its p10
   over the run, against [reference_ms], says how fast the host ran, and
   gated timings are reported at the reference speed.

   The kernel allocates nothing and fits in L2, so the program's heap, GC
   settings and memory traffic barely reach its time: an integer Dijkstra
   over an implicit 96x96 grid with a preallocated binary heap, the
   shape of the program's routing. *)

let now () = Int64.to_float (Noc_exec.Metrics.now_ns ()) /. 1e9

(* The kernel's p10 on the reference host: 2 vCPUs on Firecracker/KVM,
   an Intel Xeon at 2.1 GHz, OCaml 5.1.1 without flambda. *)
let reference_ms = 0.6

(* Keys are [distance lsl 16 lor node]; stale entries are skipped. *)
let side = 96
let nodes = side * side
let dist = Array.make nodes 0
let heap = Array.make (4 * nodes) 0

let dijkstra () =
  Array.fill dist 0 nodes max_int;
  dist.(0) <- 0;
  heap.(0) <- 0;
  let size = ref 1 in
  let push k =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2) > k do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- k
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !size then continue := false
      else begin
        let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  let relax u d v =
    let nd = d + 1 + (((u * 31) + v) land 7) in
    if nd < dist.(v) then begin
      dist.(v) <- nd;
      push ((nd lsl 16) lor v)
    end
  in
  while !size > 0 do
    let k = pop () in
    let d = k lsr 16 and u = k land 0xFFFF in
    if d = dist.(u) then begin
      let x = u mod side in
      if x > 0 then relax u d (u - 1);
      if x < side - 1 then relax u d (u + 1);
      if u >= side then relax u d (u - side);
      if u < nodes - side then relax u d (u + side)
    end
  done;
  dist.(nodes - 1)

let samples = ref []
let last = ref neg_infinity
let reset () = samples := []

(* Time the kernel three times in a row: the first run after the
   program's work finds a cold cache, the later ones a warm one. *)
let probe () =
  for _ = 1 to 3 do
    let t0 = now () in
    ignore (Sys.opaque_identity (dijkstra ()));
    samples := ((now () -. t0) *. 1000.0) :: !samples
  done;
  last := now ()

(* Probe if a quarter of a second has passed since the last probe. *)
let maybe_probe () = if now () -. !last >= 0.25 then probe ()

let kernel_ms () = Stats.percentile 0.1 !samples

(* A run's timing in ms (or s) at the reference host's speed. *)
let at_reference t = t *. reference_ms /. kernel_ms ()

let report workload =
  Printf.sprintf "%s host probe: p10 %.4f ms, p50 %.4f ms (n=%d), timings scaled by %.4f"
    workload (kernel_ms ()) (Stats.median !samples) (List.length !samples)
    (reference_ms /. kernel_ms ())
