(* Spans recorded by the benchmark around each call into a layer.  A span
   has a name, its layer, start and end on the monotonic clock, its
   parent span and the operation it belongs to.  Spans stay in memory
   until [write]; with tracing off, [span] is a direct call. *)

type span = {
  id : int;
  parent : int;  (** [-1] at the root of an operation *)
  op : int;  (** shared by every span of one operation *)
  layer : string;
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_op = ref 0
let now = Noc_exec.Metrics.now_ns

(* Start a new operation: later spans share its id. *)
let new_op () = incr current_op

let span layer name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start_ns = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop_ns = now () in
        stack := List.tl !stack;
        spans :=
          { id; parent; op = !current_op; layer; name; start_ns; stop_ns }
          :: !spans)
      f
  end

let duration s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Self time per layer, in ns: each span's duration minus its direct
   children's. *)
let self_ns () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    !spans;
  let per_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)
      in
      Hashtbl.replace per_layer s.layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt per_layer s.layer)))
    !spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq per_layer))

(* Durations (ms) of every span with this layer and name. *)
let durations_ms layer name =
  List.filter_map
    (fun s ->
      if s.layer = layer && s.name = name then Some (duration s /. 1e6) else None)
    !spans

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"op\": %d, \"layer\": %S, \"name\": %S, \
         \"start_ns\": %Ld, \"end_ns\": %Ld}\n"
        s.id s.parent s.op s.layer s.name s.start_ns s.stop_ns)
    (List.rev !spans);
  close_out oc
