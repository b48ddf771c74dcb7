(* The mrm2 daemons under test: spawned on private Unix sockets in a
   temporary directory, detected ready by connecting, read for VmHWM
   while still serving, drained with SIGTERM and required to exit 0
   with their socket removed. A daemon that dies early fails the run. *)

module Wire = Mrm_server.Wire

exception Failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

type t = {
  name : string;
  pid : int;
  socket : string;
  log : string;  (** the daemon's stderr (its --metrics report lands here) *)
  trace : string option;  (** its JSONL span file, when traced *)
  mutable status : Unix.process_status option;
}

let tail_of_log t =
  let lines = Sysinfo.read_lines t.log in
  let n = List.length lines in
  String.concat " | " (List.filteri (fun i _ -> i >= n - 5) lines)

let spawned = ref 0

(* [spawn ~trace] runs the daemon with the program's own span tracing
   writing JSONL into [dir]; otherwise tracing is off, whatever
   MRM2_TRACE says. *)
let spawn ?(trace = false) ~mrm2 ~dir ~name args =
  let socket = Filename.concat dir (name ^ ".sock") in
  (* A fresh log per spawn: truncating the log a drained daemon just
     closed can stall for tens of milliseconds, inside the timed set-up. *)
  incr spawned;
  let log = Filename.concat dir (Printf.sprintf "%s-%d.log" name !spawned) in
  let trace =
    if trace then Some (Filename.concat dir (Printf.sprintf "%s-%d.trace.jsonl" name !spawned))
    else None
  in
  let argv =
    Array.of_list
      ((mrm2 :: args)
      @ [ "--socket"; socket; "--metrics"; "--trace=" ^ Option.value ~default:"null" trace ])
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o600 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close err)
      (fun () -> Unix.create_process mrm2 argv devnull devnull err)
  in
  { name; pid; socket; log; trace; status = None }

let rec waitpid_eintr flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr flags pid

let exited t =
  match t.status with
  | Some _ -> true
  | None -> (
      match waitpid_eintr [ Unix.WNOHANG ] t.pid with
      | 0, _ -> false
      | _, st ->
          t.status <- Some st;
          true)

let describe = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

let connect ?(timeout = 60.) t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX t.socket) with
  | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
      Wire.of_fd fd
  | exception e ->
      Unix.close fd;
      raise e

let ready_timeout = 30.

let await_ready t =
  let timeout = ready_timeout in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll () =
    if exited t then
      failf "%s died before it was ready (%s): %s" t.name
        (describe (Option.get t.status)) (tail_of_log t)
    else
      match connect t with
      | conn -> Wire.close conn
      | exception Unix.Unix_error _ ->
          if Unix.gettimeofday () > deadline then failf "%s not ready after %.0f s" t.name timeout;
          (* Fine-grained: readiness after a ~4 ms start-up is part of setup_s. *)
          Unix.sleepf 0.0002;
          poll ()
  in
  poll ()

let check_alive t =
  if exited t then
    failf "%s died during the run (%s): %s" t.name (describe (Option.get t.status)) (tail_of_log t)

let vmhwm_mb t =
  check_alive t;
  match Sysinfo.vmhwm_mb (string_of_int t.pid) with
  | Some mb -> mb
  | None -> failf "cannot read VmHWM of %s" t.name

(* SIGTERM, then wait (bounded) for a graceful exit 0 with the socket
   gone. On timeout the daemon is killed and the run fails. *)
let drain_timeout = 60.

let stop t =
  let timeout = drain_timeout in
  check_alive t;
  Unix.kill t.pid Sys.sigterm;
  let deadline = Unix.gettimeofday () +. timeout in
  while not (exited t) do
    if Unix.gettimeofday () > deadline then begin
      Unix.kill t.pid Sys.sigkill;
      t.status <- Some (snd (waitpid_eintr [] t.pid));
      failf "%s did not drain within %.0f s" t.name timeout
    end;
    Unix.sleepf 0.002
  done;
  (match t.status with
  | Some (Unix.WEXITED 0) -> ()
  | Some st -> failf "%s exited with %s: %s" t.name (describe st) (tail_of_log t)
  | None -> ());
  if Sys.file_exists t.socket then failf "%s left its socket %s behind" t.name t.socket

(* Last-resort cleanup on an error path: no process is left running. *)
let kill t =
  if not (exited t) then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    t.status <- Some (snd (waitpid_eintr [] t.pid))
  end

(* Counters of the --metrics report the daemon printed when it drained. *)
let metrics t =
  List.filter_map
    (fun line ->
      match List.filter (fun s -> s <> "") (String.split_on_char ' ' line) with
      | [ name; v ] when String.contains name '.' ->
          Option.map (fun v -> (name, v)) (float_of_string_opt v)
      | _ -> None)
    (Sysinfo.read_lines t.log)

(* Spans a traced daemon wrote, read after its drain. *)
let trace_records t =
  match t.trace with
  | None -> 0
  | Some path -> List.length (Sysinfo.read_lines path)

(* A private directory for sockets and logs inside the working tree,
   named after this process and a counter. *)
let work_root = ".perfbench"

let made = ref 0

let make_dir () =
  if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o700;
  let rec fresh () =
    incr made;
    let dir = Filename.concat work_root (Printf.sprintf "run-%d-%d" (Unix.getpid ()) !made) in
    match Sys.mkdir dir 0o700 with
    | () -> dir
    | exception Sys_error _ when Sys.file_exists dir -> fresh ()
  in
  fresh ()

(* Kill whatever is still running, then drop the directory with its
   logs (and the sockets of any daemon that had to be killed). *)
let cleanup daemons dir =
  List.iter kill daemons;
  match Sys.readdir dir with
  | files ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
      Sys.rmdir dir
  | exception Sys_error _ -> ()
