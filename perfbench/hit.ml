(* serve-hit: `mrm2 route` over two `mrm2 serve` replicas (pool of one
   domain each) under one closed-loop connection drawing a fixed key
   pool with Zipf skew 1. One connection keeps a single request in
   flight through the four processes, so on a two-core machine the run
   measures the request path rather than the scheduler. Set-up solves every key once, so the measured
   phase is cache hits: the router and the replica still parse and
   digest every model and the replica validates it before its lookup. *)

module Json = Mrm_util.Json
module Batch = Mrm_batch.Batch
module Protocol = Mrm_server.Protocol
module Lru_cache = Mrm_server.Lru_cache
module Wire = Mrm_server.Wire
module Ring = Mrm_cluster.Ring
module Loadgen = Mrm_cluster.Loadgen

let setup_reps = 5
let conns = 1
let vnodes = 64 (* the router's default *)

type cluster = { router : Daemon.t; replicas : Daemon.t array }

let daemons c = c.router :: Array.to_list c.replicas

let spawn ?(trace = false) ~mrm2 ~dir () =
  let prefix = if trace then "traced-" else "" in
  let replica name =
    Daemon.spawn ~trace ~mrm2 ~dir ~name:(prefix ^ name) [ "serve"; "--jobs"; "1"; "--workers"; "1" ]
  in
  let replicas = [| replica "r0"; replica "r1" |] in
  let backends =
    List.concat_map (fun (r : Daemon.t) -> [ "--backend"; r.Daemon.socket ]) (Array.to_list replicas)
  in
  let router =
    Daemon.spawn ~trace ~mrm2 ~dir ~name:(prefix ^ "router")
      ([ "route"; "--vnodes"; string_of_int vnodes ] @ backends)
  in
  { router; replicas }

let stop c = List.iter Daemon.stop (daemons c)

(* Solve every key once through the router; each first answer must be a
   checked miss. Returns the warm-up lines. *)
let warm_up c keys =
  let w = Daemon.connect c.router in
  Fun.protect ~finally:(fun () -> Wire.close w) @@ fun () ->
  Array.mapi
    (fun k (key : Gen.request) ->
      let line =
        match Wire.exchange w key.Gen.line with
        | Ok line -> line
        | Error e -> Daemon.failf "warm-up of key %d: %s" k e
      in
      (match Check.response key.Gen.check line with
      | Ok () -> ()
      | Error e -> Daemon.failf "warm-up of key %d: %s" k e);
      if Protocol.response_cached (Json.parse_exn line) then
        Daemon.failf "warm-up of key %d was already cached" k;
      line)
    keys

(* Per-connection key streams, each its own seeded Zipf sampler; the
   draws are recorded so a second phase can replay them exactly. *)
let key_streams ~seed =
  Array.init conns (fun c ->
      let sample =
        Loadgen.key_sampler ~keys:Gen.hit_keys ~skew:Gen.hit_skew (Gen.rng_for ~seed (2_000_000 + c))
      in
      let drawn = ref [||] and n = ref 0 in
      fun seq ->
        while seq >= !n do
          if !n = Array.length !drawn then
            drawn := Array.append !drawn (Array.make (Int.max 1024 !n) 0);
          !drawn.(!n) <- sample ();
          incr n
        done;
        !drawn.(seq))

(* Mean microseconds per call of [f] over [reps] calls. *)
let us_per_call ~reps f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int reps

(* Hit-path layers timed in process around their public calls. *)
let layer_probes ~seed ~keys ~warm ~ring =
  let weights = Loadgen.key_weights ~keys:Gen.hit_keys ~skew:Gen.hit_skew in
  let total_w = Array.fold_left ( +. ) 0. weights in
  let reps = 10 in
  let per_key =
    Array.map
      (fun (key : Gen.request) ->
        let json = Json.parse_exn key.Gen.line in
        let job =
          match Batch.job_of_json ~default_id:"x" json with
          | Ok j -> j
          | Error e -> Daemon.failf "key does not decode: %s" e
        in
        let outcome = (Batch.run [| job |]).(0) in
        ( Gen.band_of_states key.Gen.states,
          us_per_call ~reps (fun () -> Batch.job_of_json ~default_id:"x" json),
          us_per_call ~reps (fun () -> Batch.digest job),
          us_per_call ~reps (fun () -> Protocol.parse_request ~now:0. ~default_id:"x" key.Gen.line),
          us_per_call ~reps (fun () -> Protocol.validate job),
          us_per_call ~reps (fun () -> Protocol.response_of_outcome ~cached:true outcome),
          Batch.digest job ))
      keys
  in
  let zipf_mean f =
    let acc = ref 0. in
    Array.iteri (fun k x -> acc := !acc +. (weights.(k) *. f x)) per_key;
    !acc /. total_w
  in
  let band_median b f =
    let xs =
      Array.of_list
        (List.filter_map
           (fun ((band, _, _, _, _, _, _) as x) -> if band = b then Some (f x) else None)
           (Array.to_list per_key))
    in
    (Array.length xs, Stats.median_of_reps xs)
  in
  let digests = Array.map (fun (_, _, _, _, _, _, d) -> d) per_key in
  (* LRU lookups in the workload's key order, at its key count. *)
  let lru = Lru_cache.create ~max_entries:256 ~weight:(fun _ -> 1) () in
  Array.iter (fun d -> Lru_cache.add lru d ()) digests;
  let draw = (key_streams ~seed).(0) in
  let lookups = 100_000 in
  let seq = Array.init lookups (fun i -> digests.(draw i)) in
  let i = ref 0 in
  let lru_us =
    us_per_call ~reps:lookups (fun () ->
        let r = Lru_cache.find_opt lru seq.(!i) in
        incr i;
        r)
  in
  let j = ref 0 in
  let route_us =
    us_per_call ~reps:lookups (fun () ->
        let r = Ring.route ring seq.(!j) in
        incr j;
        r)
  in
  (* Wire round trip of a median-length response line over a socketpair. *)
  let lines = Array.copy warm in
  Array.sort (fun a b -> Int.compare (String.length a) (String.length b)) lines;
  let line = lines.(Array.length lines / 2) in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let wa = Wire.of_fd a and wb = Wire.of_fd b in
  let trips = 2000 in
  let rt =
    Fun.protect
      ~finally:(fun () ->
        Wire.close wa;
        Wire.close wb)
      (fun () ->
        Array.init trips (fun _ ->
            let t0 = Unix.gettimeofday () in
            Wire.write_line wa line;
            let echoed = Wire.read_line wb in
            Wire.write_line wb echoed;
            ignore (Wire.read_line wa);
            (Unix.gettimeofday () -. t0) *. 1e6))
  in
  let band name f =
    List.mapi
      (fun b band_name ->
        let n, v = band_median b f in
        Report.metric ~samples:n (Printf.sprintf "%s.%s" name band_name) "us" v)
      (Array.to_list Gen.band_names)
  in
  let nkeys = Array.length keys in
  band "batch.job_of_json_us" (fun (_, x, _, _, _, _, _) -> x)
  @ band "batch.digest_us" (fun (_, _, x, _, _, _, _) -> x)
  @ Report.
      [
        metric ~samples:nkeys "server.protocol.parse_us" "us" (zipf_mean (fun (_, _, _, x, _, _, _) -> x));
        metric ~samples:nkeys "server.protocol.validate_us" "us"
          (zipf_mean (fun (_, _, _, _, x, _, _) -> x));
        metric ~samples:nkeys "server.protocol.encode_us" "us" (zipf_mean (fun (_, _, _, _, _, x, _) -> x));
        metric ~samples:lookups "server.lru.find_us" "us" lru_us;
        metric ~samples:trips "server.wire.roundtrip_us" "us" (Stats.percentile rt 0.5);
        metric ~samples:lookups "cluster.ring.route_us" "us" route_us;
      ]

let cluster_stats c =
  let w = Daemon.connect c.router in
  Fun.protect ~finally:(fun () -> Wire.close w) @@ fun () ->
  match Wire.exchange w {|{"cluster":"stats","id":"stats"}|} with
  | Error e -> Daemon.failf "cluster stats: %s" e
  | Ok line -> (
      match Json.member "cluster" (Json.parse_exn line) with
      | Some (Json.Obj fields) ->
          List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) (Json.to_float v)) fields
      | _ -> Daemon.failf "cluster stats: no cluster object in %s" line)

let run ~mrm2 ~seed ~seconds ~trace =
  let keys = Gen.hit_pool ~seed in
  let dir = Daemon.make_dir () in
  let live = ref [] in
  Fun.protect ~finally:(fun () -> Daemon.cleanup !live dir) @@ fun () ->
  let setups = Array.make setup_reps 0. in
  let current = ref None in
  for r = 0 to setup_reps - 1 do
    Option.iter (fun (c, _) -> stop c) !current;
    let t0 = Unix.gettimeofday () in
    let c = spawn ~mrm2 ~dir () in
    live := daemons c;
    List.iter Daemon.await_ready (daemons c);
    let warm = warm_up c keys in
    setups.(r) <- Unix.gettimeofday () -. t0;
    current := Some (c, warm)
  done;
  let c, warm = Option.get !current in
  (* A hit repeats its own cluster's warm-up answer (elapsed included). *)
  let expected_of warm =
    Array.map
      (fun w -> match Check.expected_hit w with Ok e -> e | Error e -> Daemon.failf "%s" e)
      warm
  in
  let expected = expected_of warm in
  let streams = key_streams ~seed in
  let next ci seq =
    let k = streams.(ci) seq in
    (k, keys.(k).Gen.line)
  in
  let min_samples = Stats.min_samples 0.95 in
  let cap = Loop.cap ~seconds in
  let cpu0 = Sysinfo.cpu_seconds () and wall0 = Unix.gettimeofday () in
  let samples =
    Loop.run ~conns
      ~connect:(fun _ -> Daemon.connect c.router)
      ~next
      ~stop:(Loop.stop_rule ~seconds ~cap ~enough:(fun ~completed -> completed >= min_samples))
  in
  let wall = Unix.gettimeofday () -. wall0 and cpu = Sysinfo.cpu_seconds () -. cpu0 in
  let failures = ref [] in
  let verdict ?(expected = expected) (s : Loop.sample) =
    let v =
      match s.Loop.response with
      | Error e -> Error ("transport: " ^ e)
      | Ok line -> Check.hit ~expected:expected.(s.Loop.key) line
    in
    match v with
    | Ok () -> true
    | Error e ->
        failures := Printf.sprintf "key %d: %s" s.Loop.key e :: !failures;
        false
  in
  let ok = Array.fold_left (fun n s -> if verdict s then n + 1 else n) 0 samples in
  let attempted = Array.length samples in
  let failed = attempted - ok in
  (* Traced run: replay each connection's key sequence straight to the
     key's ring owner; the paired difference is the router hop. *)
  let ring = Ring.create ~vnodes (List.map (fun (r : Daemon.t) -> r.Daemon.socket) (Array.to_list c.replicas)) in
  let direct =
    if not trace then [||]
    else begin
      let digests =
        Array.map
          (fun (key : Gen.request) ->
            match Batch.job_of_json ~default_id:"x" (Json.parse_exn key.Gen.line) with
            | Ok job -> Batch.digest job
            | Error e -> Daemon.failf "key does not decode: %s" e)
          keys
      in
      let owner_of k =
        let name = Ring.owner ring digests.(k) in
        List.find (fun (r : Daemon.t) -> r.Daemon.socket = name) (Array.to_list c.replicas)
      in
      let sent = Array.make conns 0 in
      Array.iter (fun (s : Loop.sample) -> sent.(s.Loop.conn) <- Int.max sent.(s.Loop.conn) (s.Loop.seq + 1)) samples;
      (* One connection per replica and client thread, so each request
         goes straight to its owner. *)
      let conns_of = Array.init conns (fun _ -> Hashtbl.create 2) in
      let send c seq =
        let k = streams.(c) seq in
        let r = owner_of k in
        let w =
          match Hashtbl.find_opt conns_of.(c) r.Daemon.name with
          | Some w -> w
          | None ->
              let w = Daemon.connect r in
              Hashtbl.add conns_of.(c) r.Daemon.name w;
              w
        in
        let t0 = Unix.gettimeofday () in
        let resp = Wire.exchange w keys.(k).Gen.line in
        (k, Unix.gettimeofday () -. t0, resp)
      in
      let start = Unix.gettimeofday () in
      let out = Array.make conns [] in
      let threads =
        Array.init conns (fun ci ->
            Thread.create
              (fun ci ->
                let seq = ref 0 in
                while !seq < sent.(ci) && Unix.gettimeofday () -. start < seconds do
                  out.(ci) <- (ci, !seq, send ci !seq) :: out.(ci);
                  incr seq
                done;
                Hashtbl.iter (fun _ w -> Wire.close w) conns_of.(ci))
              ci)
      in
      Array.iter Thread.join threads;
      Array.of_list (List.concat_map List.rev (Array.to_list out))
    end
  in
  (* VmHWM of the router and both replicas, read before the drain. *)
  let rss = List.fold_left (fun acc d -> acc +. Daemon.vmhwm_mb d) 0. (daemons c) in
  let stats = if trace then cluster_stats c else [] in
  (* The program's own tracing: the measured cluster and a fresh one
     spawned with --trace and warmed the same way, loaded side by side
     with the same key streams. *)
  let traced, untraced =
    if not trace then ([||], [||])
    else begin
      let tc = spawn ~trace:true ~mrm2 ~dir () in
      live := daemons c @ daemons tc;
      List.iter Daemon.await_ready (daemons tc);
      let traced_expected = expected_of (warm_up tc keys) in
      let draw = Mutex.create () in
      let traced, untraced =
        Loop.side_by_side ~conns
          ~connect:(fun ~traced _ -> Daemon.connect (if traced then tc.router else c.router))
          ~next:(fun ci seq ->
            Mutex.lock draw;
            let k = Fun.protect ~finally:(fun () -> Mutex.unlock draw) (fun () -> streams.(ci) seq) in
            (k, keys.(k).Gen.line))
          ~requests:2000
      in
      stop tc;
      live := daemons c;
      Array.iter (fun s -> ignore (verdict ~expected:traced_expected s)) traced;
      Array.iter (fun s -> ignore (verdict s)) untraced;
      let spans = Daemon.trace_records tc.router in
      if spans < Array.length traced then
        failures :=
          Printf.sprintf "traced router wrote %d spans for %d requests" spans (Array.length traced)
          :: !failures;
      (traced, untraced)
    end
  in
  stop c;
  let replica_metrics = Array.map Daemon.metrics c.replicas in
  let counter name =
    Array.fold_left
      (fun acc m -> acc +. Option.value ~default:0. (List.assoc_opt name m))
      0. replica_metrics
  in
  let latencies = Array.map (fun (s : Loop.sample) -> Loop.ms s.Loop.latency) samples in
  let e2e =
    Report.
      [
        metric ~samples:setup_reps "setup_s" "s" (Stats.median_of_reps setups);
        metric ~samples:ok "throughput_rps" "1/s" (float_of_int ok /. wall);
        metric ~samples:attempted "latency_p50_ms" "ms" (Stats.percentile latencies 0.5);
        metric ~samples:attempted "latency_p95_ms" "ms" (Stats.percentile latencies 0.95);
        metric ~samples:attempted "ok_ratio" "ratio" (float_of_int ok /. float_of_int attempted);
        metric ~samples:3 "peak_rss_mb" "MB" rss;
      ]
  in
  let layers =
    if not trace then []
    else begin
      let via_router = Hashtbl.create 1024 in
      Array.iter
        (fun (s : Loop.sample) -> Hashtbl.replace via_router (s.Loop.conn, s.Loop.seq) s.Loop.latency)
        samples;
      let hops =
        Array.of_list
          (List.filter_map
             (fun (ci, seq, (k, dt, resp)) ->
               (match resp with
               | Ok line -> (
                   match Check.hit ~expected:expected.(k) line with
                   | Ok () -> ()
                   | Error e -> failures := Printf.sprintf "direct key %d: %s" k e :: !failures)
               | Error e -> failures := Printf.sprintf "direct key %d: %s" k e :: !failures);
               Option.map (fun l -> Loop.ms (l -. dt)) (Hashtbl.find_opt via_router (ci, seq)))
             (Array.to_list direct))
      in
      let stat name = Option.value ~default:0. (List.assoc_opt name stats) in
      let hits = counter "server.cache_hits" and misses = counter "server.cache_misses" in
      let nh = Array.length hops in
      layer_probes ~seed ~keys ~warm ~ring
      @ Report.
          [
            metric "server.cache_hits" "count" hits;
            metric "server.cache_misses" "count" misses;
            metric "server.rejected" "count" (counter "server.rejected");
            metric "server.timeouts" "count" (counter "server.timeouts");
            metric "server.cache_hit_ratio" "ratio" (hits /. (hits +. misses));
            metric ~samples:nh "cluster.router.hop_ms.p50" "ms" (Stats.percentile hops 0.5);
            metric ~samples:nh "cluster.router.hop_ms.p95" "ms" (Stats.percentile hops 0.95);
            metric "cluster.forwarded" "count" (stat "cluster.forwarded");
            metric "cluster.failovers" "count" (stat "cluster.failovers");
            metric "cluster.shed" "count" (stat "cluster.shed");
            metric "cluster.unavailable" "count" (stat "cluster.unavailable");
            metric ~samples:(Array.length traced) "obs.trace_overhead_ratio" "ratio"
              (Loop.trace_overhead ~traced ~untraced);
            metric "loadgen.cpu_share" "ratio" (cpu /. wall);
          ]
    end
  in
  let failures = List.rev !failures in
  {
    Report.attempted;
    failed;
    correct = failures = [];
    end_to_end = e2e;
    layers;
    notes = List.filteri (fun i _ -> i < 5) failures;
  }
