(* perfbench: the repository's benchmark program.

     main.exe --workload paper-sweep|serve-miss|serve-hit --seed N
              --seconds S --trace 0|1 [--mrm2 PATH]

   Runs one workload, checks every output, prints the hardware
   fingerprint and a table of metrics (each with unit and sample count),
   and ends with one JSON line: {"correct", "attempted", "failed",
   "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
   --trace 1 they are the per-layer ones, and the spans are written to
   .perfbench/trace-<workload>-<seed>.jsonl. *)

open Perfbench_lib

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-sweep|serve-miss|serve-hit --seed N --seconds S \
     --trace 0|1 [--mrm2 PATH]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let seed = Int64.of_int (int "seed") in
  let seconds = float_of_int (int "seconds") in
  let trace = int "trace" <> 0 in
  let mrm2 = Option.value ~default:"_build/default/bin/mrm2.exe" (List.assoc_opt "mrm2" opts) in
  if seconds <= 0. then usage ();
  let needs_daemon = workload <> "paper-sweep" in
  if needs_daemon && not (Sys.file_exists mrm2) then begin
    Printf.eprintf "perfbench: mrm2 binary %s not found\n" mrm2;
    exit 1
  end;
  let nproc = Sysinfo.nproc () in
  Printf.printf "workload %s, seed %Ld, %g s, trace %b\n" workload seed seconds trace;
  Printf.printf "fingerprint: %s\n%!"
    (Mrm_util.Json.to_string
       (Sysinfo.fingerprint ~pool_domains:(if workload = "serve-hit" then 1 else nproc)));
  (* The per-layer metric list lives in BENCHMARK.json, at the root of
     the checkout the benchmark runs from. *)
  let layers =
    if not trace then None
    else
      match Report.layer_spec "BENCHMARK.json" with
      | spec -> Some spec
      | exception Failure msg ->
          Printf.eprintf "perfbench: %s\n" msg;
          exit 1
  in
  Spans.enabled := trace;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let run =
    match workload with
    | "paper-sweep" -> fun () -> Paper.run ~seed ~seconds ~trace
    | "serve-miss" -> fun () -> Miss.run ~mrm2 ~seed ~seconds ~trace
    | "serve-hit" -> fun () -> Hit.run ~mrm2 ~seed ~seconds ~trace
    | other ->
        Printf.eprintf "perfbench: unknown workload %S\n" other;
        exit 2
  in
  let failed msg =
    Printf.eprintf "perfbench: %s failed: %s\n" workload msg;
    exit 1
  in
  match run () with
  | exception (Daemon.Failed msg | Stats.Refused msg | Failure msg) -> failed msg
  | report -> (
      if trace then begin
        let spans = Spans.spans () in
        Printf.printf "span self time\n";
        List.iter
          (fun (name, n, self) -> Printf.printf "  %-36s n=%-6d self %.3f s\n" name n self)
          (Spans.self_times spans);
        if not (Sys.file_exists Daemon.work_root) then Sys.mkdir Daemon.work_root 0o700;
        let path =
          Filename.concat Daemon.work_root (Printf.sprintf "trace-%s-%Ld.jsonl" workload seed)
        in
        Spans.write_jsonl path spans;
        Printf.printf "spans: %d written to %s\n" (List.length spans) path
      end;
      try Report.print ?layers report with Failure msg -> failed msg)
