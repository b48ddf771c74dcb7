(* paper-sweep: the paper's Table-2 scalability experiment, in process.
   One Batch.run job at a time on a pool of nproc domains; every job is
   an ON–OFF model (sigma^2 = 10, C = N) solved over a five-point time
   ramp at order 3 and eps 1e-9. *)

module Json = Mrm_util.Json
module Batch = Mrm_batch.Batch
module Pool = Mrm_engine.Pool
module Kernel = Mrm_engine.Kernel
module Generator = Mrm_ctmc.Generator
module Poisson = Mrm_ctmc.Poisson
module Model = Mrm_core.Model
module Randomization = Mrm_core.Randomization
module Trace = Mrm_obs.Trace

let job_count = 12
let setup_reps = 5
let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The solver's reward scaling constant d (Randomization, after the
   non-negativity shift). *)
let solver_d model q =
  let shift = Float.min 0. (Model.min_rate model) in
  let max_rate = Array.fold_left (fun m r -> Float.max m (r -. shift)) 0. model.Model.rates in
  Float.max (max_rate /. q) (Model.max_std_dev model /. sqrt q)

(* Outside timing of the solve's set-up layers at the job's own q, d and
   eps: Poisson weights and the truncation point of every time point. *)
type setup_split = { weights_s : float; truncation_s : float }

let setup_split (job : Batch.job) =
  let model = job.Batch.model in
  let q = Generator.uniformization_rate model.Model.generator in
  let d = solver_d model q in
  let weights_s = ref 0. and truncation_s = ref 0. in
  Array.iter
    (fun t ->
      let lambda = q *. t in
      let _, w = timed (fun () -> Poisson.weights_window ~lambda ~eps:job.Batch.eps) in
      let _, g =
        timed (fun () ->
            Randomization.truncation_point ~d ~lambda ~order:job.Batch.order ~eps:job.Batch.eps)
      in
      weights_s := !weights_s +. w;
      truncation_s := !truncation_s +. g)
    job.Batch.times;
  { weights_s = !weights_s; truncation_s = !truncation_s }

let iterations (o : Batch.outcome) =
  match o.Batch.result with
  | Ok (Batch.Points ps) ->
      Array.fold_left
        (fun g (p : Batch.point) -> Int.max g (Option.value ~default:0 p.Batch.iterations))
        0 ps
  | Ok (Batch.Density _) | Error _ -> 0

let values_bits (o : Batch.outcome) =
  match o.Batch.result with
  | Ok (Batch.Points ps) ->
      Array.to_list
        (Array.concat
           (Array.to_list
              (Array.map (fun (p : Batch.point) -> Array.map Int64.bits_of_float p.Batch.values) ps)))
  | Ok (Batch.Density _) | Error _ -> []

type job_sample = {
  index : int;
  states : int;
  seconds : float;
  g : int;
  split : setup_split option;  (** traced run only *)
  traced : bool;
}

(* The solver's own spans (Mrm_obs.Trace) of one traced pass. *)
let solver_trace_path ~seed ~pass =
  Filename.concat Daemon.work_root (Printf.sprintf "solver-trace-%Ld-%d.jsonl" seed pass)

let run ~seed ~seconds ~trace =
  let nproc = Sysinfo.nproc () in
  (* Tracing stays off outside the traced jobs, whatever MRM2_TRACE says. *)
  Trace.set_sink Trace.Null;
  if trace && not (Sys.file_exists Daemon.work_root) then Sys.mkdir Daemon.work_root 0o700;
  let specs = Gen.paper_specs ~seed ~count:job_count in
  (* Set-up: pool plus every job model, repeated; the median is reported
     and the last set-up is the one measured. *)
  let setups = Array.make setup_reps 0. in
  let pool = ref None and jobs = ref [||] in
  for r = 0 to setup_reps - 1 do
    Option.iter Pool.shutdown !pool;
    pool := None;
    jobs := [||];
    Gc.full_major ();
    let (p, js), dt =
      timed (fun () ->
          let p = Pool.create ~jobs:nproc () in
          (p, Array.mapi Gen.paper_job specs))
    in
    setups.(r) <- dt;
    pool := Some p;
    jobs := js
  done;
  let pool = Option.get !pool and jobs = !jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let structures =
    Array.map
      (fun (j : Batch.job) ->
        Kernel.structure_kind (Kernel.detect (Generator.matrix j.Batch.model.Model.generator)))
      jobs
  in
  let min_jobs = Stats.min_samples 0.95 in
  let cap = Loop.cap ~seconds in
  let failures = ref [] and samples = ref [] in
  let start = now () in
  let i = ref 0 in
  while
    let elapsed = now () -. start in
    (elapsed < seconds || !i < min_jobs) && elapsed < cap
  do
    let k = !i mod job_count in
    let job = jobs.(k) in
    (* In the traced run alternate passes over the job list solve with
       the program's own span tracing on, so the same job traced and
       untraced gives the tracing overhead. *)
    let pass = !i / job_count in
    let traced = trace && pass land 1 = 0 in
    if trace && !i mod job_count = 0 then
      Trace.set_sink (if traced then Trace.Jsonl (solver_trace_path ~seed ~pass) else Trace.Null);
    Spans.with_span ~request:!i "paper-sweep.job" @@ fun root ->
    let split =
      if trace then
        Some (Spans.with_span ~parent:root ~request:!i "solver.setup_probe" (fun _ -> setup_split job))
      else None
    in
    let outcomes, dt =
      Spans.with_span ~parent:root ~request:!i "batch.run" (fun _ ->
          timed (fun () -> Batch.run ~pool [| job |]))
    in
    let o = outcomes.(0) in
    (match Check.outcome (Gen.Onoff_moments (Gen.paper_params specs.(k))) o with
    | Ok () -> ()
    | Error e -> failures := Printf.sprintf "job %d (N=%d): %s" !i specs.(k).Gen.sources e :: !failures);
    samples :=
      { index = !i; states = specs.(k).Gen.sources + 1; seconds = dt; g = iterations o; split; traced }
      :: !samples;
    incr i
  done;
  let wall = now () -. start in
  Trace.set_sink Trace.Null;
  let samples = Array.of_list (List.rev !samples) in
  let attempted = Array.length samples and failed = List.length !failures in
  let ok = attempted - failed in
  (* A job's latency is its time to a solution: one Batch.run call. *)
  let latencies = Array.map (fun s -> Loop.ms s.seconds) samples in
  let peak = Option.value ~default:0. (Sysinfo.self_vmhwm_mb ()) in
  let e2e =
    Report.
      [
        metric ~samples:setup_reps "setup_s" "s" (Stats.median_of_reps setups);
        metric ~samples:ok "throughput_rps" "1/s" (float_of_int ok /. wall);
        metric ~samples:attempted "latency_p50_ms" "ms" (Stats.percentile latencies 0.5);
        metric ~samples:attempted "latency_p95_ms" "ms" (Stats.percentile latencies 0.95);
        metric ~samples:attempted "ok_ratio" "ratio" (float_of_int ok /. float_of_int attempted);
        metric "peak_rss_mb" "MB" peak;
      ]
  in
  let notes = ref (List.rev !failures) in
  let layers =
    if not trace then []
    else begin
      let m = Report.metric ~samples:attempted in
      let med f = Stats.percentile (Array.map f samples) 0.5 in
      let split s = Option.get s.split in
      let sweep_s s = s.seconds -. (split s).weights_s -. (split s).truncation_s in
      let ns_per s = sweep_s s *. 1e9 /. (float_of_int s.states *. float_of_int s.g) in
      let terms = Array.length jobs.(0).Batch.times in
      let bytes = Sysinfo.bytes_per_state_iter ~order:3 ~terms in
      let achieved s =
        float_of_int bytes *. float_of_int s.states *. float_of_int s.g /. sweep_s s /. 1e9
      in
      (* Job k of a traced pass against job k of the untraced pass after it. *)
      let overhead_pairs =
        Array.of_list
          (List.filter_map
             (fun s ->
               if s.traced && s.index + job_count < attempted then
                 Some (s.seconds /. samples.(s.index + job_count).seconds)
               else None)
             (Array.to_list samples))
      in
      (* Pool probe: the first job on 1 domain against nproc domains,
         results asserted bit for bit. *)
      let seq, t1 = Pool.with_pool ~jobs:1 (fun p1 -> timed (fun () -> Batch.run ~pool:p1 [| jobs.(0) |])) in
      let par, tn = timed (fun () -> Batch.run ~pool [| jobs.(0) |]) in
      if values_bits seq.(0) <> values_bits par.(0) || values_bits par.(0) = [] then
        notes := "1-domain and nproc-domain solves differ" :: !notes;
      (* Roofline denominators: triad on vectors the size of the median
         job's, and on arrays of at least 4x the LLC. *)
      let llc = Sysinfo.llc_bytes () in
      let llc_elems = int_of_float (med (fun s -> float_of_int s.states)) in
      let dram_elems = 4 * Option.value ~default:(32 * 1024 * 1024) llc / 8 in
      let t_llc = Sysinfo.triad pool ~elements:llc_elems ~min_seconds:0.3 in
      Gc.full_major ();
      let t_dram = Sysinfo.triad pool ~elements:dram_elems ~min_seconds:0.5 in
      Gc.full_major ();
      let mib b = float_of_int b /. 1048576. in
      Printf.printf
        "stream: llc probe 3 arrays x %.2f MiB, dram probe 3 arrays x %.1f MiB, LLC %s\n"
        (mib t_llc.Sysinfo.array_bytes) (mib t_dram.Sysinfo.array_bytes)
        (match llc with Some b -> Printf.sprintf "%.1f MiB" (mib b) | None -> "unknown");
      Printf.printf "roofline: %d passes per iteration, %d B per state-iteration (computed)\n"
        (Sysinfo.passes ~order:3 ~terms) bytes;
      (* Cross-check: every traced job left its solver spans, and the
         solver's own randomization.sweep time against the outside split. *)
      let traced = List.filter (fun s -> s.traced) (Array.to_list samples) in
      let records =
        List.concat_map
          (fun s ->
            if s.index mod job_count = 0 then
              List.map Json.parse_exn
                (Sysinfo.read_lines (solver_trace_path ~seed ~pass:(s.index / job_count)))
            else [])
          traced
      in
      let solver_sweeps =
        Array.of_list
          (List.filter_map
             (fun r ->
               if Option.bind (Json.member "name" r) Json.to_str = Some "randomization.sweep" then
                 Option.bind (Json.member "elapsed" r) Json.to_float
               else None)
             records)
      in
      let n_traced = List.length traced in
      Printf.printf "solver spans: %d for %d traced jobs in %s, ...\n" (List.length records) n_traced
        (solver_trace_path ~seed ~pass:0);
      if Array.length solver_sweeps <> n_traced then
        notes :=
          Printf.sprintf "%d randomization.sweep spans for %d traced jobs" (Array.length solver_sweeps)
            n_traced
          :: !notes
      else if n_traced > 0 then
        Printf.printf "sweep time, median over traced jobs: solver span %.4f s, outside split %.4f s\n"
          (Stats.median_of_reps solver_sweeps)
          (Stats.median_of_reps (Array.of_list (List.map sweep_s traced)));
      let count kind =
        float_of_int
          (Array.fold_left
             (fun c s -> if structures.(s.index mod job_count) = kind then c + 1 else c)
             0 samples)
      in
      Report.
        [
          m "ctmc.poisson.weights_ms" "ms" (1e3 *. med (fun s -> (split s).weights_s));
          m "core.randomization.truncation_ms" "ms" (1e3 *. med (fun s -> (split s).truncation_s));
          m "core.randomization.G" "count" (med (fun s -> float_of_int s.g));
          m "core.randomization.sweep_ns_per_state_iter.tridiagonal" "ns" (med ns_per);
          metric "core.randomization.passes_per_iter" "count"
            (float_of_int (Sysinfo.passes ~order:3 ~terms));
          metric "core.randomization.bytes_per_state_iter" "B" (float_of_int bytes);
          m "core.randomization.achieved_gbps" "GB/s" (med achieved);
          metric "stream.triad_gbps.llc" "GB/s" t_llc.Sysinfo.gbps;
          metric "stream.triad_gbps.dram" "GB/s" t_dram.Sysinfo.gbps;
          metric ~samples:2 "engine.pool.speedup" "ratio" (t1 /. tn);
          metric ~samples:2 "engine.pool.efficiency" "ratio" (t1 /. tn /. float_of_int nproc);
          m "engine.kernel.structure.tridiagonal" "count" (count "tridiagonal");
          m "engine.kernel.structure.csr" "count" (count "csr");
          metric ~samples:(Array.length overhead_pairs) "obs.trace_overhead_ratio" "ratio"
            (Stats.mean overhead_pairs);
        ]
    end
  in
  {
    Report.attempted;
    failed;
    correct = !notes = [];
    end_to_end = e2e;
    layers;
    notes = !notes;
  }
