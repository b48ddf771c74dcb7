(* Tests of the benchmark's own parts: the seeded generator, the output
   checks, the sample-size rule, the roofline pass count and the
   fingerprint. *)

open Perfbench_lib
module Json = Mrm_util.Json
module Batch = Mrm_batch.Batch
module Onoff = Mrm_models.Onoff
module Protocol = Mrm_server.Protocol

let seed = 7L
let miss_count = 2000

let job_of_line line =
  match Batch.job_of_json ~default_id:"x" (Json.parse_exn line) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s does not decode: %s" line e

let str key json = Option.bind (Json.member key json) Json.to_str
let num key json = Option.bind (Json.member key json) Json.to_float

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)

let miss_lines seed = List.init 500 (fun k -> (Gen.miss_request ~seed k).Gen.line)
let hit_lines seed = Array.to_list (Array.map (fun r -> r.Gen.line) (Gen.hit_pool ~seed))

let paper_desc seed =
  Array.to_list
    (Array.map
       (fun s -> Printf.sprintf "%d/%h" s.Gen.sources s.Gen.t_max)
       (Gen.paper_specs ~seed ~count:12))

let test_same_seed () =
  Alcotest.(check (list string)) "miss stream" (miss_lines seed) (miss_lines seed);
  Alcotest.(check (list string)) "hit pool" (hit_lines seed) (hit_lines seed);
  Alcotest.(check (list string)) "paper jobs" (paper_desc seed) (paper_desc seed)

let test_other_seed () =
  let differs a b = List.exists2 (fun x y -> not (String.equal x y)) a b in
  Alcotest.(check bool) "miss stream" true (differs (miss_lines seed) (miss_lines 8L));
  Alcotest.(check bool) "hit pool" true (differs (hit_lines seed) (hit_lines 8L));
  Alcotest.(check bool) "paper jobs" true (differs (paper_desc seed) (paper_desc 8L))

let test_paper_ranges () =
  List.iter (fun seed -> Array.iter
    (fun s ->
      let p = Gen.paper_params s in
      let qt = Onoff.uniformization_rate p *. s.Gen.t_max in
      if s.Gen.sources < 20_000 || s.Gen.sources > 60_000 then Alcotest.failf "N = %d" s.Gen.sources;
      if qt < 150. || qt > 550. then Alcotest.failf "qt = %g at N = %d" qt s.Gen.sources;
      Alcotest.(check (float 0.)) "C = N" (float_of_int s.Gen.sources) p.Onoff.capacity;
      Alcotest.(check (float 0.)) "sigma2" 10. p.Onoff.rate_variance;
      Alcotest.(check (float (1e-12 *. s.Gen.t_max))) "ramp end" s.Gen.t_max (Gen.ramp s.Gen.t_max).(4))
    (Gen.paper_specs ~seed ~count:12)) (List.init 20 Int64.of_int);
  let job = Gen.paper_job 0 (Gen.paper_specs ~seed ~count:1).(0) in
  Alcotest.(check int) "five-point ramp" 5 (Array.length job.Batch.times);
  Alcotest.(check int) "order" 3 job.Batch.order;
  Alcotest.(check (float 0.)) "eps" 1e-9 job.Batch.eps

let test_miss_mix () =
  let reqs = Array.init miss_count (Gen.miss_request ~seed) in
  let stationary = Array.fold_left (fun n r -> if r.Gen.stationary then n + 1 else n) 0 reqs in
  Alcotest.(check int) "30% stationary" (miss_count * 3 / 10) stationary;
  Array.iter
    (fun r ->
      let json = Json.parse_exn r.Gen.line in
      let job = job_of_line r.Gen.line in
      let size = int_of_float (Option.get (num "size" json)) in
      if r.Gen.stationary then begin
        Alcotest.(check (option string)) "onoff" (Some "onoff") (str "model" json);
        if r.Gen.states < 30 || r.Gen.states > 200 then Alcotest.failf "%d CR states" r.Gen.states;
        match (job.Batch.kind, r.Gen.check) with
        | Batch.Stationary { drain; regularize }, Gen.Onoff_stationary p ->
            let mean_rate =
              p.Onoff.capacity
              -. (float_of_int p.Onoff.sources *. p.Onoff.peak_rate *. p.Onoff.off_to_on
                 /. (p.Onoff.on_to_off +. p.Onoff.off_to_on))
            in
            if not (drain > mean_rate) then Alcotest.failf "drain %g <= mean rate %g" drain mean_rate;
            if not (regularize > 0.) then Alcotest.fail "no regularize floor"
        | _ -> Alcotest.fail "stationary request without a stationary job"
      end
      else begin
        Alcotest.(check (option string)) "multi" (Some "multi") (str "model" json);
        if size < 100 || size > 600 then Alcotest.failf "multi size %d" size;
        Alcotest.(check int) "five-point ramp" 5 (Array.length job.Batch.times)
      end)
    reqs

let test_miss_digests_distinct () =
  let seen = Hashtbl.create miss_count in
  for k = 0 to miss_count - 1 do
    let d = Batch.digest (job_of_line (Gen.miss_request ~seed k).Gen.line) in
    if Hashtbl.mem seen d then Alcotest.failf "request %d repeats digest of %d" k (Hashtbl.find seen d);
    Hashtbl.add seen d k
  done

let test_hit_pool () =
  let keys = Gen.hit_pool ~seed in
  let cap = (Mrm_server.Server.default_config (`Unix "unused")).Mrm_server.Server.cache_entries in
  if Array.length keys >= cap then Alcotest.failf "%d keys, LRU cap %d" (Array.length keys) cap;
  let models = Hashtbl.create 3 and digests = Hashtbl.create 128 in
  Array.iter
    (fun r ->
      let json = Json.parse_exn r.Gen.line in
      let size = int_of_float (Option.get (num "size" json)) in
      if size < 50 || size > 1000 then Alcotest.failf "size %d" size;
      Hashtbl.replace models (Option.get (str "model" json)) ();
      Hashtbl.replace digests (Batch.digest (job_of_line r.Gen.line)) ())
    keys;
  Alcotest.(check int) "three built-ins" 3 (Hashtbl.length models);
  Alcotest.(check int) "distinct digests" (Array.length keys) (Hashtbl.length digests)

(* Why the benchmark has its own generator: the loadgen's key lines are
   ON–OFF only and their horizon (so their cost) grows with the key. *)
let test_loadgen_job_line () =
  let cfg = Mrm_cluster.Loadgen.default_config (`Unix "unused") in
  let t k = Option.get (num "t" (Json.parse_exn (Mrm_cluster.Loadgen.job_line cfg k))) in
  for k = 0 to 59 do
    let json = Json.parse_exn (Mrm_cluster.Loadgen.job_line cfg k) in
    Alcotest.(check (option string)) "onoff only" (Some "onoff") (str "model" json);
    if k >= 3 && not (t k > t (k - 3)) then Alcotest.failf "horizon of key %d does not grow" k
  done

(* ------------------------------------------------------------------ *)
(* Output checks: a correct output passes, one flipped bit fails        *)

let flip bit x = Int64.float_of_bits (Int64.logxor (Int64.bits_of_float x) (Int64.shift_left 1L bit))

let onoff_params = Gen.builtin_onoff ~size:12 ~sigma2:10.

let solve_onoff () =
  let job =
    job_of_line {|{"model":"onoff","size":12,"sigma2":10,"times":[0.05,0.1,0.2],"order":3}|}
  in
  (Batch.run [| job |]).(0)

let map_points f (o : Batch.outcome) =
  match o.Batch.result with
  | Ok (Batch.Points ps) ->
      {
        o with
        Batch.result =
          Ok (Batch.Points (Array.mapi (fun i (p : Batch.point) -> { p with Batch.values = f i p.Batch.values }) ps));
      }
  | _ -> Alcotest.fail "expected points"

let set_value k v i values = if i = 0 then Array.mapi (fun j x -> if j = k then v x else x) values else values

let expect_fail what = function
  | Ok () -> Alcotest.failf "%s: corrupted output passed the check" what
  | Error _ -> ()

let expect_ok what = function Ok () -> () | Error e -> Alcotest.failf "%s: %s" what e

let test_check_moments () =
  let o = solve_onoff () in
  let check = Gen.Onoff_moments onoff_params in
  expect_ok "correct outcome" (Check.outcome check o);
  expect_ok "correct response" (Check.response check (Protocol.response_of_outcome ~cached:false o));
  expect_fail "mean bit 40" (Check.outcome check (map_points (set_value 1 (flip 40)) o));
  expect_fail "mass bit 52" (Check.outcome check (map_points (set_value 0 (flip 52)) o));
  expect_fail "third moment NaN" (Check.outcome Gen.Moments (map_points (set_value 3 (fun _ -> nan)) o));
  expect_fail "variance" (Check.outcome Gen.Moments (map_points (set_value 2 (fun _ -> 0.)) o));
  expect_fail "response mean bit 40"
    (Check.response check
       (Protocol.response_of_outcome ~cached:false (map_points (set_value 1 (flip 40)) o)))

let test_closed_form () =
  (* Small t: every source starts OFF, so E[B(t)] ~ C t. *)
  let t = 1e-6 in
  let rel = Float.abs (Check.onoff_mean onoff_params t -. (12. *. t)) /. (12. *. t) in
  if rel > 1e-5 then Alcotest.failf "closed form at small t off by %g" rel

let test_check_stationary () =
  let r = Gen.miss_request ~seed 0 in
  let rec first_stationary k =
    let r = Gen.miss_request ~seed k in
    if r.Gen.stationary && r.Gen.states <= 60 then r else first_stationary (k + 1)
  in
  let r = if r.Gen.stationary then r else first_stationary 0 in
  let o = (Batch.run [| job_of_line r.Gen.line |]).(0) in
  expect_ok "correct density" (Check.outcome r.Gen.check o);
  let corrupt f =
    match o.Batch.result with
    | Ok (Batch.Density d) -> { o with Batch.result = Ok (Batch.Density (f d)) }
    | _ -> Alcotest.fail "expected a density"
  in
  expect_fail "marginal bit 45"
    (Check.outcome r.Gen.check
       (corrupt (fun d ->
            let top = ref 0 in
            Array.iteri (fun i x -> if x > d.Batch.marginal.(!top) then top := i) d.Batch.marginal;
            { d with Batch.marginal = Array.mapi (fun i x -> if i = !top then flip 45 x else x) d.Batch.marginal })));
  expect_fail "residual"
    (Check.outcome r.Gen.check (corrupt (fun d -> { d with Batch.residual = 1e-9 })));
  expect_ok "correct response"
    (Check.response r.Gen.check (Protocol.response_of_outcome ~cached:false o))

let test_check_hit () =
  (* The server answers a hit from the stored outcome of the first solve. *)
  let o = solve_onoff () in
  let warm = Protocol.response_of_outcome ~cached:false o in
  let expected = match Check.expected_hit warm with Ok e -> e | Error e -> Alcotest.fail e in
  let hit = Protocol.response_of_outcome ~cached:true o in
  expect_ok "hit" (Check.hit ~expected hit);
  expect_fail "miss flag" (Check.hit ~expected warm);
  for i = 0 to String.length hit - 1 do
    let b = Bytes.of_string hit in
    Bytes.set b i (Char.chr (Char.code hit.[i] lxor 1));
    expect_fail (Printf.sprintf "bit 0 of byte %d" i) (Check.hit ~expected (Bytes.to_string b))
  done

(* ------------------------------------------------------------------ *)
(* Sample-size rule                                                    *)

let samples n = Array.init n (fun i -> float_of_int (n - i))

let refused f = match f () with _ -> false | exception Stats.Refused _ -> true

let test_percentiles () =
  Alcotest.(check bool) "p95 of 199 refused" true (refused (fun () -> Stats.percentile (samples 199) 0.95));
  Alcotest.(check (float 0.)) "p95 of 200 is rank 190" 190. (Stats.percentile (samples 200) 0.95);
  Alcotest.(check (float 0.)) "p50 of 200 is rank 100" 100. (Stats.percentile (samples 200) 0.5);
  Alcotest.(check (float 0.)) "p99 of 2000 is rank 1980" 1980. (Stats.percentile (samples 2000) 0.99);
  Alcotest.(check bool) "p99.9 of 2000 refused" true
    (refused (fun () -> Stats.percentile (samples 2000) 0.999));
  Alcotest.(check bool) "p99 of 200 refused" true (refused (fun () -> Stats.percentile (samples 200) 0.99));
  Alcotest.(check int) "p95 needs 200" 200 (Stats.min_samples 0.95);
  Alcotest.(check int) "p50 needs 20" 20 (Stats.min_samples 0.5);
  Alcotest.(check bool) "p50 of 19 refused" true (refused (fun () -> Stats.percentile (samples 19) 0.5))

let test_transport_failure () =
  let sample = { Loop.conn = 0; seq = 0; key = -1; latency = 0.; response = Error "ECONNREFUSED" } in
  match Miss.check_sample ~seed:1L sample with
  | Ok () -> Alcotest.fail "a transport failure passed"
  | Error _ -> ()

let test_trace_overhead_pairs () =
  let s conn seq latency = { Loop.conn; seq; key = seq; latency; response = Ok "" } in
  let traced = [| s 0 0 2.; s 0 1 4.; s 1 0 6. |] and untraced = [| s 0 1 2.; s 0 0 1. |] in
  Alcotest.(check (float 1e-12)) "same positions only" 2. (Loop.trace_overhead ~traced ~untraced)

(* ------------------------------------------------------------------ *)
(* Per-layer metric list                                               *)

let test_all_layers () =
  let spec = [ ("a.ms", "ms"); ("b.count", "count") ] in
  let shown = Report.all_layers ~spec [ Report.metric ~samples:3 "a.ms" "ms" 1.5 ] in
  Alcotest.(check (list (triple string (float 0.) int)))
    "spec order, unmeasured read 0 with no samples"
    [ ("a.ms", 1.5, 3); ("b.count", 0., 0) ]
    (List.map (fun (m : Report.metric) -> (m.Report.name, m.Report.value, m.Report.samples)) shown);
  let fails measured = match Report.all_layers ~spec measured with _ -> false | exception Failure _ -> true in
  Alcotest.(check bool) "unlisted metric fails" true (fails [ Report.metric "c.ms" "ms" 1. ]);
  Alcotest.(check bool) "other unit fails" true (fails [ Report.metric "a.ms" "us" 1. ])

let test_layer_spec () =
  let spec = Report.layer_spec "../BENCHMARK.json" in
  Alcotest.(check bool) "per_layer listed" true (List.length spec > 0);
  Alcotest.(check (option string)) "units read" (Some "ms") (List.assoc_opt "ctmc.poisson.weights_ms" spec);
  Alcotest.(check bool) "fails on a missing file" true
    (match Report.layer_spec "no-such-file.json" with _ -> false | exception Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Roofline inputs and fingerprint                                     *)

let test_passes () =
  Alcotest.(check int) "order 3, one time point" 9 (Sysinfo.passes ~order:3 ~terms:1);
  Alcotest.(check int) "order 3, five time points" 21 (Sysinfo.passes ~order:3 ~terms:5);
  Alcotest.(check int) "bytes, order 3, five points" 592 (Sysinfo.bytes_per_state_iter ~order:3 ~terms:5)

let test_fingerprint () =
  let json = Sysinfo.fingerprint ~pool_domains:2 in
  List.iter
    (fun key -> if Json.member key json = None then Alcotest.failf "fingerprint lacks %s" key)
    [ "nproc"; "cpu_model"; "llc_bytes"; "ocaml_version"; "pool_domains"; "git_commit" ];
  Alcotest.(check (option string)) "ocaml" (Some Sys.ocaml_version) (str "ocaml_version" json)

let test_span_self_time () =
  let s id name start stop parent = { Spans.id; name; start; stop; parent; request = 0 } in
  let times = Spans.self_times [ s 0 "root" 0. 10. (-1); s 1 "child" 2. 5. 0; s 2 "child" 6. 7. 0 ] in
  Alcotest.(check (list (triple string int (float 1e-12))))
    "self" [ ("child", 2, 4.); ("root", 1, 6.) ] times

let () =
  Alcotest.run "perfbench"
    [
      ( "generator",
        [
          Alcotest.test_case "same seed, same stream" `Quick test_same_seed;
          Alcotest.test_case "other seed, other stream" `Quick test_other_seed;
          Alcotest.test_case "paper-sweep shape" `Quick test_paper_ranges;
          Alcotest.test_case "serve-miss mix and sizes" `Quick test_miss_mix;
          Alcotest.test_case "serve-miss digests distinct" `Quick test_miss_digests_distinct;
          Alcotest.test_case "serve-hit key pool" `Quick test_hit_pool;
          Alcotest.test_case "loadgen job_line is onoff-only" `Quick test_loadgen_job_line;
        ] );
      ( "checks",
        [
          Alcotest.test_case "moments pass, flipped bits fail" `Quick test_check_moments;
          Alcotest.test_case "closed form" `Quick test_closed_form;
          Alcotest.test_case "stationary pass, flipped bit fails" `Quick test_check_stationary;
          Alcotest.test_case "cache hit bit for bit" `Quick test_check_hit;
        ] );
      ( "stats",
        [
          Alcotest.test_case "sample-size rule" `Quick test_percentiles;
          Alcotest.test_case "transport failure fails the check" `Quick test_transport_failure;
          Alcotest.test_case "trace overhead pairs requests" `Quick test_trace_overhead_pairs;
        ] );
      ( "report",
        [
          Alcotest.test_case "per-layer metric list" `Quick test_all_layers;
          Alcotest.test_case "per_layer read from BENCHMARK.json" `Quick test_layer_spec;
        ] );
      ( "roofline",
        [
          Alcotest.test_case "pass count" `Quick test_passes;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint;
          Alcotest.test_case "span self time" `Quick test_span_self_time;
        ] );
    ]
