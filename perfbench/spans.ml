(* In-memory span recorder for the traced run. Spans are opened from
   the benchmark's own files around calls into the program's layers;
   parents are passed explicitly (no global "current span"), so spans
   from the two client threads never adopt each other. The record is
   written as JSONL when the run ends. *)

module Json = Mrm_util.Json

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a root span *)
  request : int;  (** request or job index, -1 when none *)
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let push span = locked (fun () -> recorded := span :: !recorded)

(* [with_span ~parent ~request name f] runs [f id]; when recording is
   on, the span [id] covering the call is kept. *)
let with_span ?(parent = -1) ?(request = -1) name f =
  if not !enabled then f (-1)
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let start = Unix.gettimeofday () in
    let result = f id in
    push { id; name; start; stop = Unix.gettimeofday (); parent; request };
    result
  end

let spans () = locked (fun () -> List.rev !recorded)

(* Per span name: count and total self time (duration minus the time
   its direct children cover), in seconds, sorted by name. *)
let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (Option.value ~default:0. (Hashtbl.find_opt child_time s.parent) +. (s.stop -. s.start)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = s.stop -. s.start -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      let n, total = Option.value ~default:(0, 0.) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, total +. self))
    spans;
  List.sort compare (List.of_seq (Seq.map (fun (k, (n, t)) -> (k, n, t)) (Hashtbl.to_seq by_name)))

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Num (float_of_int s.id));
                ("name", Json.Str s.name);
                ("start", Json.Num s.start);
                ("end", Json.Num s.stop);
                ("parent", if s.parent < 0 then Json.Null else Json.Num (float_of_int s.parent));
                ("request", if s.request < 0 then Json.Null else Json.Num (float_of_int s.request));
              ]));
      output_char oc '\n')
    spans
