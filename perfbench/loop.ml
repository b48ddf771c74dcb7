(* Closed-loop load from this one process: [conns] threads, each holding
   one connection and sending its next request only after the previous
   response arrived. *)

module Wire = Mrm_server.Wire

type sample = {
  conn : int;
  seq : int;  (** position in this connection's stream *)
  key : int;  (** request index or key, as the workload defines it *)
  latency : float;  (** seconds, send to response read *)
  response : (string, string) result;  (** the line, or the transport error *)
}

(* [run ~conns ~connect ~next ~stop] drives [conns] connections
   until [stop ~completed] holds; [next conn seq] gives the request
   (key, line). A transport failure ends that connection's loop. *)
let run ~conns ~connect ~next ~stop =
  let completed = Atomic.make 0 in
  let worker c =
    let out = ref [] in
    (match connect c with
    | exception e ->
        out := [ { conn = c; seq = 0; key = -1; latency = 0.; response = Error (Printexc.to_string e) } ]
    | w ->
        Fun.protect ~finally:(fun () -> Wire.close w) @@ fun () ->
        let seq = ref 0 and go = ref true in
        while !go && not (stop ~completed:(Atomic.get completed)) do
          let key, line = next c !seq in
          let response, latency =
            Spans.with_span ~request:key "client.request" @@ fun root ->
            let t0 = Unix.gettimeofday () in
            match
              Spans.with_span ~parent:root ~request:key "client.send" (fun _ ->
                  Wire.write_line w line);
              Spans.with_span ~parent:root ~request:key "client.await_response" (fun _ ->
                  Wire.read_line w)
            with
            | line -> (Ok line, Unix.gettimeofday () -. t0)
            | exception e -> (Error (Printexc.to_string e), Unix.gettimeofday () -. t0)
          in
          out := { conn = c; seq = !seq; key; latency; response } :: !out;
          Atomic.incr completed;
          incr seq;
          if Result.is_error response then go := false
        done);
    List.rev !out
  in
  let results = Array.make conns [] in
  let threads = Array.init conns (fun c -> Thread.create (fun c -> results.(c) <- worker c) c) in
  Array.iter Thread.join threads;
  Array.of_list (List.concat (Array.to_list results))

(* How long a measured phase may run past [seconds] while it gathers
   the samples its percentiles need: 4x, at least 60 s, at most 120 s. *)
let cap ~seconds = Float.min 120. (Float.max 60. (4. *. seconds))

(* A stop rule: at least [seconds] and [enough ~completed], or the cap,
   whichever comes first. *)
let stop_rule ~seconds ~cap ~enough =
  let start = Unix.gettimeofday () in
  fun ~completed ->
    let elapsed = Unix.gettimeofday () -. start in
    (elapsed >= seconds && enough ~completed) || elapsed >= cap

(* The program's own tracing overhead, measured side by side so both
   halves see the same machine: [conns] connections to an untraced
   target and [conns] to a traced one run at once, each side sending the
   same stream ([next conn seq]), until [requests] per side are done.
   [connect ~traced conn] opens a connection. Returns the traced and
   untraced samples, [conn] numbered from 0 on each side. *)
let side_by_side ~conns ~connect ~next ~requests =
  let samples =
    run ~conns:(2 * conns)
      ~connect:(fun c -> connect ~traced:(c >= conns) (c mod conns))
      ~next:(fun c seq -> next (c mod conns) seq)
      ~stop:(fun ~completed -> completed >= 2 * requests)
  in
  let side traced =
    Array.of_list
      (List.filter_map
         (fun s -> if (s.conn >= conns) = traced then Some { s with conn = s.conn mod conns } else None)
         (Array.to_list samples))
  in
  (side true, side false)

(* Summed latency of the traced requests over that of the same requests
   (same connection and position in its stream) untraced. *)
let trace_overhead ~traced ~untraced =
  let by_position = Hashtbl.create (Array.length untraced) in
  Array.iter (fun s -> Hashtbl.replace by_position (s.conn, s.seq) s.latency) untraced;
  let t, u =
    Array.fold_left
      (fun (t, u) s ->
        match Hashtbl.find_opt by_position (s.conn, s.seq) with
        | Some l -> (t +. s.latency, u +. l)
        | None -> (t, u))
      (0., 0.) traced
  in
  t /. u

let ms x = 1e3 *. x
