(* A [noc_synth serve] child process and a closed-loop client that keeps
   one request in flight per connection, all from one process. *)

module Json = Noc_exec.Json
module Client = Noc_serve.Serve.Client

type t = { pid : int; socket : string }

(* seconds on the monotonic clock *)
let now () = Int64.to_float (Noc_exec.Metrics.now_ns ()) /. 1e9

let request_line fields =
  Json.to_string (Json.document ~kind:"serve_request" fields) ^ "\n"

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

let open_fd socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

(* Wait until the daemon accepts connections, polling every 0.5 ms.
   [Client.connect ~retry_for] sleeps 20 ms between attempts, which would
   round [setup_s] up to 20 ms steps. *)
let await_socket ?(within_s = 30.0) socket =
  let deadline = now () +. within_s in
  let rec go () =
    match open_fd socket with
    | fd -> Unix.close fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

(* One request on a fresh connection. *)
let call_socket socket fields =
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      Client.request c (Json.document ~kind:"serve_request" fields))

let str key j =
  match Json.member key j with Some (Json.String s) -> s | _ -> ""

let int key j = match Json.member key j with Some (Json.Int n) -> n | _ -> 0

(* Start a daemon and wait until it answers [ping]; returns the daemon and
   the seconds from spawn to the first answer. *)
let start ~exe ~socket ~store ~workers ~log =
  let t0 = now () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "--socket"; socket; "--store"; store; "--workers";
        string_of_int workers; "--queue"; "64"; "-q";
      |]
      devnull devnull err
  in
  Unix.close devnull;
  Unix.close err;
  let d = { pid; socket } in
  await_socket socket;
  let reply = call_socket socket [ ("op", Json.String "ping") ] in
  let ready_s = now () -. t0 in
  if str "status" reply <> "ok" then failwith "daemon ping failed";
  (d, ready_s)

let call d fields = call_socket d.socket fields

let stop d =
  (try ignore (call d [ ("op", Json.String "shutdown") ]) with _ -> ());
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "daemon exited abnormally"

let kill d =
  (try Unix.kill d.pid Sys.sigkill with _ -> ());
  try ignore (Unix.waitpid [] d.pid) with _ -> ()

(* Peak resident set of a live process, from /proc, in MB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
      in
      find ())

type answer = {
  item : int;  (** index in the connection's schedule *)
  rtt_ns : int64;
  response : Json.t;
}

(* Closed loop: each connection sends its next request as soon as its
   previous answer is in.  [schedules.(c)] are connection [c]'s request
   lines; returns per connection its answers in schedule order. *)
let closed_loop d schedules =
  let conns = Array.length schedules in
  let fds = Array.map (fun _ -> open_fd d.socket) schedules in
  let bufs = Array.init conns (fun _ -> Buffer.create 65536) in
  let next = Array.make conns 0 in
  let sent_at = Array.make conns 0L in
  let answers = Array.make conns [] in
  let chunk = Bytes.create 65536 in
  let send c =
    let items = schedules.(c) in
    if next.(c) < Array.length items then begin
      sent_at.(c) <- Noc_exec.Metrics.now_ns ();
      write_all fds.(c) items.(next.(c)) 0
    end
  in
  Array.iteri (fun c _ -> send c) fds;
  let live () =
    List.filter (fun c -> next.(c) < Array.length schedules.(c)) (List.init conns Fun.id)
  in
  let rec loop () =
    match live () with
    | [] -> ()
    | cs ->
      let ready, _, _ = Unix.select (List.map (fun c -> fds.(c)) cs) [] [] (-1.0) in
      List.iter
        (fun c ->
          if List.mem fds.(c) ready then begin
            let n = Unix.read fds.(c) chunk 0 (Bytes.length chunk) in
            if n = 0 then failwith "daemon closed a client connection";
            Buffer.add_subbytes bufs.(c) chunk 0 n;
            let s = Buffer.contents bufs.(c) in
            match String.index_opt s '\n' with
            | None -> ()
            | Some i ->
              let stop = Noc_exec.Metrics.now_ns () in
              let response =
                match Json.of_string (String.sub s 0 i) with
                | Ok j -> j
                | Error e -> Json.Obj [ ("status", Json.String ("unparsable: " ^ e)) ]
              in
              Buffer.clear bufs.(c);
              Buffer.add_string bufs.(c) (String.sub s (i + 1) (String.length s - i - 1));
              answers.(c) <-
                { item = next.(c); rtt_ns = Int64.sub stop sent_at.(c); response }
                :: answers.(c);
              next.(c) <- next.(c) + 1;
              send c
          end)
        cs;
      loop ()
  in
  Fun.protect ~finally:(fun () -> Array.iter Unix.close fds) loop;
  Array.map List.rev answers
