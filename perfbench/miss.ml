(* serve-miss: one `mrm2 serve` (pool of nproc domains, one worker,
   validation on) under two closed-loop connections whose requests all
   have distinct digests: ~70% multi moments jobs (general CSR) and
   ~30% ON–OFF stationary jobs solved by Cyclic Reduction. *)

module Json = Mrm_util.Json
module Batch = Mrm_batch.Batch
module Kernel = Mrm_engine.Kernel
module Generator = Mrm_ctmc.Generator
module Model = Mrm_core.Model

let setup_reps = 25
let conns = 2

let num key json = Option.bind (Json.member key json) Json.to_float

let max_iterations json =
  match Option.bind (Json.member "points" json) Json.to_list with
  | None -> 0
  | Some ps ->
      List.fold_left
        (fun g p -> Int.max g (int_of_float (Option.value ~default:0. (num "iterations" p))))
        0 ps

(* A transport failure (key -1 when the connection never opened) fails
   the request without rebuilding it. *)
let check_sample ~seed (s : Loop.sample) =
  match s.Loop.response with
  | Error e -> Error ("transport: " ^ e)
  | Ok line -> Check.response (Gen.miss_request ~seed s.Loop.key).Gen.check line

let run ~mrm2 ~seed ~seconds ~trace =
  let nproc = Sysinfo.nproc () in
  let dir = Daemon.make_dir () in
  let live = ref [] in
  Fun.protect ~finally:(fun () -> Daemon.cleanup !live dir) @@ fun () ->
  let spawn ?trace name =
    let d =
      Daemon.spawn ?trace ~mrm2 ~dir ~name [ "serve"; "--jobs"; string_of_int nproc; "--workers"; "1" ]
    in
    live := [ d ];
    d
  in
  let setups = Array.make setup_reps 0. in
  let daemon = ref None in
  for r = 0 to setup_reps - 1 do
    Option.iter Daemon.stop !daemon;
    let t0 = Unix.gettimeofday () in
    let d = spawn "serve" in
    Daemon.await_ready d;
    setups.(r) <- Unix.gettimeofday () -. t0;
    daemon := Some d
  done;
  let d = Option.get !daemon in
  (* Requests are numbered across both connections in send order; the
     stream itself is a function of the seed alone. *)
  let next_index = Atomic.make 0 in
  let stationary_sent = Atomic.make 0 in
  let next _ _ =
    let k = Atomic.fetch_and_add next_index 1 in
    let req = Gen.miss_request ~seed k in
    if req.Gen.stationary then Atomic.incr stationary_sent;
    (k, req.Gen.line)
  in
  let min_samples = Stats.min_samples 0.95 in
  (* The traced run also needs enough CR solves for their own p95. *)
  let stop =
    Loop.stop_rule ~seconds ~cap:(Loop.cap ~seconds) ~enough:(fun ~completed ->
        completed >= min_samples && ((not trace) || Atomic.get stationary_sent >= min_samples))
  in
  let cpu0 = Sysinfo.cpu_seconds () and wall0 = Unix.gettimeofday () in
  let samples = Loop.run ~conns ~connect:(fun _ -> Daemon.connect d) ~next ~stop in
  let wall = Unix.gettimeofday () -. wall0 and cpu = Sysinfo.cpu_seconds () -. cpu0 in
  let rss = Daemon.vmhwm_mb d in
  Daemon.stop d;
  live := [];
  let metrics = Daemon.metrics d in
  let counter name = Option.value ~default:0. (List.assoc_opt name metrics) in
  (* Check every response against its own job. *)
  let failures = ref [] in
  let checked =
    Array.map
      (fun (s : Loop.sample) ->
        let verdict = check_sample ~seed s in
        (match verdict with
        | Ok () -> ()
        | Error e -> failures := Printf.sprintf "request %d: %s" s.Loop.key e :: !failures);
        (s, Result.is_ok verdict))
      samples
  in
  let attempted = Array.length samples in
  let failed = List.length !failures in
  let ok = attempted - failed in
  let latencies = Array.map (fun (s : Loop.sample) -> Loop.ms s.Loop.latency) samples in
  let e2e =
    Report.
      [
        metric ~samples:setup_reps "setup_s" "s" (Stats.median_of_reps setups);
        metric ~samples:ok "throughput_rps" "1/s" (float_of_int ok /. wall);
        metric ~samples:attempted "latency_p50_ms" "ms" (Stats.percentile latencies 0.5);
        metric ~samples:attempted "latency_p95_ms" "ms" (Stats.percentile latencies 0.95);
        metric ~samples:attempted "ok_ratio" "ratio" (float_of_int ok /. float_of_int attempted);
        metric "peak_rss_mb" "MB" rss;
      ]
  in
  let layers =
    if not trace then []
    else begin
      let oks =
        List.filter_map
          (fun ((s : Loop.sample), good) ->
            match s.Loop.response with
            | Ok line when good -> Some (s, Gen.miss_request ~seed s.Loop.key, Json.parse_exn line)
            | _ -> None)
          (Array.to_list checked)
      in
      let arr f = Array.of_list (List.filter_map f oks) in
      let elapsed_ms = arr (fun (_, _, j) -> Option.map Loop.ms (num "elapsed" j)) in
      let overhead_ms =
        arr (fun ((s : Loop.sample), _, j) ->
            Option.map (fun e -> Loop.ms (s.Loop.latency -. e)) (num "elapsed" j))
      in
      let stat = List.filter (fun (_, req, _) -> req.Gen.stationary) oks in
      let stat_arr f = Array.of_list (List.filter_map f stat) in
      let cr_ms = stat_arr (fun (_, _, j) -> Option.map Loop.ms (num "elapsed" j)) in
      let cr_iters =
        stat_arr (fun (_, _, j) ->
            Option.bind (Json.member "stationary" j) (num "iterations"))
      in
      let cr_states = stat_arr (fun (_, req, _) -> Some (float_of_int req.Gen.states)) in
      (* CSR sweep cost: the response's solve time less the outside-timed
         Poisson weights and truncation point, per state and iteration. *)
      let structures = Hashtbl.create 4 in
      let bump k = Hashtbl.replace structures k (1 + Option.value ~default:0 (Hashtbl.find_opt structures k)) in
      let csr_ns =
        arr (fun (_, req, j) ->
            if req.Gen.stationary then (
              bump "stationary";
              None)
            else
              match Batch.job_of_json ~default_id:"x" (Json.parse_exn req.Gen.line) with
              | Error _ -> None
              | Ok job ->
                  bump
                    (Kernel.structure_kind
                       (Kernel.detect (Generator.matrix job.Batch.model.Model.generator)));
                  let split = Paper.setup_split job in
                  let g = max_iterations j in
                  Option.map
                    (fun e ->
                      (e -. split.Paper.weights_s -. split.Paper.truncation_s)
                      *. 1e9
                      /. (float_of_int (Model.dim job.Batch.model) *. float_of_int g))
                    (num "elapsed" j))
      in
      let count k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt structures k)) in
      (* The program's own tracing: a fresh untraced daemon and a fresh
         daemon spawned with --trace, loaded side by side with the same
         stream of distinct requests. *)
      let untraced_d = spawn "serve-untraced" and traced_d = spawn ~trace:true "serve-traced" in
      live := [ untraced_d; traced_d ];
      List.iter Daemon.await_ready !live;
      let traced, untraced =
        Loop.side_by_side ~conns
          ~connect:(fun ~traced _ -> Daemon.connect (if traced then traced_d else untraced_d))
          ~next:(fun c seq ->
            let k = (conns * seq) + c in
            (k, (Gen.miss_request ~seed k).Gen.line))
          ~requests:100
      in
      List.iter Daemon.stop !live;
      live := [];
      Array.iter
        (fun (s : Loop.sample) ->
          match check_sample ~seed s with
          | Ok () -> ()
          | Error e -> failures := Printf.sprintf "side-by-side request %d: %s" s.Loop.key e :: !failures)
        (Array.append traced untraced);
      let spans = Daemon.trace_records traced_d in
      if spans < Array.length traced then
        failures :=
          Printf.sprintf "traced daemon wrote %d spans for %d requests" spans (Array.length traced)
          :: !failures;
      let hits = counter "server.cache_hits" and misses = counter "server.cache_misses" in
      let m n u a q = Report.metric ~samples:(Array.length a) n u (Stats.percentile a q) in
      Report.
        [
          m "core.randomization.sweep_ns_per_state_iter.csr" "ns" csr_ns 0.5;
          metric "engine.kernel.structure.tridiagonal" "count" (count "tridiagonal");
          metric "engine.kernel.structure.csr" "count" (count "csr");
          metric "engine.kernel.structure.stationary" "count" (count "stationary");
          m "server.solve_ms.p50" "ms" elapsed_ms 0.5;
          m "server.solve_ms.p95" "ms" elapsed_ms 0.95;
          m "server.overhead_ms.p50" "ms" overhead_ms 0.5;
          m "server.overhead_ms.p95" "ms" overhead_ms 0.95;
          metric "server.cache_hits" "count" hits;
          metric "server.cache_misses" "count" misses;
          metric "server.rejected" "count" (counter "server.rejected");
          metric "server.timeouts" "count" (counter "server.timeouts");
          metric "server.cache_hit_ratio" "ratio"
            (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
          m "mmbm.solve_ms.p50" "ms" cr_ms 0.5;
          m "mmbm.solve_ms.p95" "ms" cr_ms 0.95;
          m "mmbm.iterations" "count" cr_iters 0.5;
          m "mmbm.states" "count" cr_states 0.5;
          metric ~samples:(Array.length traced) "obs.trace_overhead_ratio" "ratio"
            (Loop.trace_overhead ~traced ~untraced);
          metric "loadgen.cpu_share" "ratio" (cpu /. wall);
        ]
    end
  in
  {
    Report.attempted;
    failed;
    correct = !failures = [];
    end_to_end = e2e;
    layers;
    notes = List.filteri (fun i _ -> i < 5) (List.rev !failures);
  }
