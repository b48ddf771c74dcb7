(* Hardware fingerprint, process memory and CPU readings, the sweep's
   bytes-moved model and the STREAM-style bandwidth probe that serves
   as its roofline denominator. *)

module Json = Mrm_util.Json
module Pool = Mrm_engine.Pool

(* Lines of a file; /proc and /sys report sizes their reads do not
   match, so this reads to end of file. *)
let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec go acc =
        match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
      in
      go []

let read_file path =
  match read_lines path with [] -> None | lines -> Some (String.concat "\n" lines)

let value_after_colon line =
  match String.index_opt line ':' with
  | Some i -> Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
  | None -> None

let cpu_model () =
  List.find_map
    (fun l ->
      if String.length l >= 10 && String.sub l 0 10 = "model name" then value_after_colon l
      else None)
    (read_lines "/proc/cpuinfo")
  |> Option.value ~default:"unknown"

(* "32768K" / "8M" -> bytes. *)
let parse_size s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then None
  else
    let num, mult =
      match s.[n - 1] with
      | 'K' -> (String.sub s 0 (n - 1), 1024)
      | 'M' -> (String.sub s 0 (n - 1), 1024 * 1024)
      | _ -> (s, 1)
    in
    Option.map (fun v -> v * mult) (int_of_string_opt num)

(* Size of the highest cache level cpu0 reports, in bytes. *)
let llc_bytes () =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  let best = ref None in
  for i = 0 to 9 do
    let base = Printf.sprintf "%s/index%d/" dir i in
    match
      ( Option.bind (read_file (base ^ "level")) (fun l -> int_of_string_opt (String.trim l)),
        Option.bind (read_file (base ^ "size")) parse_size )
    with
    | Some level, Some size -> (
        match !best with
        | Some (l, _) when l >= level -> ()
        | _ -> best := Some (level, size))
    | _ -> ()
  done;
  Option.map snd !best

(* Commit of the checkout, when it still is a git work tree. *)
let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown (not a git checkout)"
  | Some head -> (
      let head = String.trim head in
      let prefix = "ref: " in
      let pl = String.length prefix in
      if String.length head > pl && String.sub head 0 pl = prefix then
        let ref_name = String.sub head pl (String.length head - pl) in
        match read_file (".git/" ^ ref_name) with
        | Some c -> String.trim c
        | None ->
            List.find_map
              (fun l ->
                match String.split_on_char ' ' l with
                | [ c; r ] when r = ref_name -> Some c
                | _ -> None)
              (read_lines ".git/packed-refs")
            |> Option.value ~default:"unknown"
      else head)

let nproc () = Pool.recommended_jobs ()

let fingerprint ~pool_domains =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (nproc ())));
      ("cpu_model", Json.Str (cpu_model ()));
      ( "llc_bytes",
        match llc_bytes () with Some b -> Json.Num (float_of_int b) | None -> Json.Null );
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("pool_domains", Json.Num (float_of_int pool_domains));
      ("git_commit", Json.Str (git_commit ()));
    ]

(* Peak resident set (VmHWM) of a process, in MiB. *)
let vmhwm_mb pid =
  List.find_map
    (fun l ->
      if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
        match String.split_on_char ' ' (Option.get (value_after_colon l)) with
        | kb :: _ -> Option.map (fun kb -> float_of_int kb /. 1024.) (int_of_string_opt kb)
        | [] -> None
      else None)
    (read_lines (Printf.sprintf "/proc/%s/status" pid))

let self_vmhwm_mb () = vmhwm_mb "self"

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Bytes moved by the fused randomization sweep (computed, not counted) *)

(* Passes over [lo, hi) per round of Randomization.run_sweep: the fused
   mat-vec, the R' passes (one per order), the S' passes (orders >= 2)
   and one accumulator pass per order and live time point. *)
let passes ~order ~terms = 1 + order + (order - 1) + (order * terms)

(* Streams of 8-byte elements each pass touches per state: the
   tridiagonal mat-vec reads [order] inputs and three band arrays and
   writes [order] outputs; an R'/S' pass reads coefficient, source and
   destination and writes the destination; an accumulator pass reads
   accumulator and source and writes the accumulator. Every time point
   is counted live in every round, so this is an upper bound. *)
let bytes_per_state_iter ~order ~terms =
  let streams = ((2 * order) + 3) + (4 * order) + (4 * (order - 1)) + (3 * order * terms) in
  8 * streams

(* ------------------------------------------------------------------ *)
(* STREAM triad a = b + s c across the pool                            *)

type triad = { elements : int; array_bytes : int; gbps : float }

let triad pool ~elements ~min_seconds =
  let a = Array.make elements 0. and b = Array.make elements 1. and c = Array.make elements 2. in
  let parts = Pool.jobs pool in
  let kernel s =
    Pool.run pool parts (fun p ->
        let lo = elements * p / parts and hi = elements * (p + 1) / parts in
        for i = lo to hi - 1 do
          Array.unsafe_set a i (Array.unsafe_get b i +. (s *. Array.unsafe_get c i))
        done)
  in
  kernel 3.;
  (* Best of repeated timed blocks, as STREAM reports. *)
  let best = ref 0. and spent = ref 0. and reps = ref 0 in
  while !spent < min_seconds || !reps < 3 do
    let inner = Int.max 1 (2_000_000 / elements) in
    let t0 = Unix.gettimeofday () in
    for r = 1 to inner do
      kernel (float_of_int r)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    spent := !spent +. dt;
    incr reps;
    let rate = 24. *. float_of_int elements *. float_of_int inner /. dt /. 1e9 in
    if rate > !best then best := rate
  done;
  if not (Float.is_finite a.(elements - 1)) then failwith "triad: non-finite result";
  { elements; array_bytes = 8 * elements; gbps = !best }
