(* Seeded input generator for the three workloads.

   Every input is a pure function of the workload seed (and, for the
   request streams, of the request index), so the same seed yields a
   byte-identical job stream. Sizes are stratified rather than drawn
   independently: each block of consecutive inputs covers the whole
   size range once, in a seeded order, offset inside each stratum by a
   golden-ratio sequence over blocks. The seed then changes every input
   while the cost profile of a run (and so its medians and tails)
   stays put. *)

module Json = Mrm_util.Json
module Rng = Mrm_util.Rng
module Batch = Mrm_batch.Batch
module Onoff = Mrm_models.Onoff

(* An independent generator for stream [stream] of [seed]. *)
let rng_for ~seed stream =
  Rng.create
    ~seed:(Int64.logxor seed (Int64.mul (Int64.of_int (stream + 1)) 0x9E3779B97F4A7C15L))
    ()

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int_below rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let golden = (sqrt 5. -. 1.) /. 2.

(* [strata rng ~jitter n] is [n] points of [0, 1): one per stratum
   [k/n, (k+1)/n), at offset [jitter] inside it, in a seeded order.
   Callers take [jitter] from a golden-ratio sequence over consecutive
   blocks, so every prefix of a stream covers each stratum evenly. *)
let strata rng ~jitter n =
  shuffle rng (Array.init n (fun k -> (float_of_int k +. jitter) /. float_of_int n))

(* Jitter of block [b]: a golden-ratio sequence from a seeded start. *)
let block_jitter ~seed b =
  let start = Rng.uniform (rng_for ~seed 999) in
  Float.rem (start +. (float_of_int b *. golden)) 1.

let lerp lo hi u = lo +. ((hi -. lo) *. u)
let log_lerp lo hi u = lo *. ((hi /. lo) ** u)

(* What the output check of one job compares against. *)
type check =
  | Onoff_moments of Onoff.params
      (** first moment against the ON–OFF closed form, plus the generic checks *)
  | Moments  (** moment 0, finiteness and variance only *)
  | Onoff_stationary of Onoff.params
      (** CR marginal against the product-form stationary law, residual *)

(* The parameters [Batch.job_of_json] gives the built-in "onoff" model. *)
let builtin_onoff ~size ~sigma2 =
  { (Onoff.table1 ~sigma2) with Onoff.sources = size; capacity = float_of_int size }

let ramp t_max = Array.init 5 (fun k -> t_max *. float_of_int (k + 1) /. 5.)
let nums a = Json.List (Array.to_list (Array.map (fun x -> Json.Num x) a))

(* ------------------------------------------------------------------ *)
(* paper-sweep: Table-2 ON–OFF jobs                                    *)

type paper_spec = { sources : int; t_max : float }

let paper_min_sources = 20_000
let paper_max_sources = 60_000

(* Work per job, states × qt: about a tenth of a second on two domains,
   so a 30 s run holds the 200 jobs its p95 needs. Holding it (nearly)
   fixed lets the seed move N across its whole range without moving the
   job time much, and puts qt = work / N between ~160 and ~520. *)
let paper_work = 1.0e7

let paper_specs ~seed ~count =
  let rng = rng_for ~seed 0 in
  let us = strata rng ~jitter:(block_jitter ~seed 0) count in
  Array.map
    (fun u ->
      let sources =
        int_of_float
          (lerp (float_of_int paper_min_sources) (float_of_int paper_max_sources) u)
      in
      let qt = paper_work /. float_of_int sources *. lerp 0.97 1.03 (Rng.uniform rng) in
      let p = Onoff.scaled_table2 ~sources in
      { sources; t_max = qt /. Onoff.uniformization_rate p })
    us

let paper_params spec = Onoff.scaled_table2 ~sources:spec.sources

let paper_job k spec =
  {
    Batch.id = Printf.sprintf "p%d" k;
    model = Onoff.model (paper_params spec);
    times = ramp spec.t_max;
    order = 3;
    eps = 1e-9;
    meth = Batch.Randomization;
    kind = Batch.Moments;
  }

(* ------------------------------------------------------------------ *)
(* serve-miss: distinct multi (CSR) moments and ON–OFF stationary jobs *)

type request = {
  line : string;  (** the JSONL request, without newline *)
  check : check;
  states : int;  (** state count of the job's model *)
  stationary : bool;
}

let miss_block = 10
let miss_stationary_per_block = 3

(* Multiprocessor cost model: time ∝ states × q × t with q ≈ 0.1 size + 1;
   the constant puts a size-400, t = 50 job at ~22 ms on one core. *)
let multi_ms_per_unit = 1. /. 74_639.

let multi_t_max ~size ~target_ms =
  let states = float_of_int ((2 * size) + 1) in
  let q = (0.1 *. float_of_int size) +. 1. in
  target_ms /. (multi_ms_per_unit *. states *. q)

(* Relative nudge that makes request [k]'s floats (so its digest) unique
   without changing its cost. *)
let nudge k x = x *. (1. +. (float_of_int k *. 0x1p-30))

let miss_request ~seed k =
  let block = k / miss_block and pos = k mod miss_block in
  let rng = rng_for ~seed (1 + block) in
  let order = shuffle rng (Array.init miss_block Fun.id) in
  let jitter = block_jitter ~seed block in
  let multi_u = strata rng ~jitter (miss_block - miss_stationary_per_block) in
  let stat_u = strata rng ~jitter miss_stationary_per_block in
  let extra = Rng.split rng in
  let slot = order.(pos) in
  let id = Json.Str (Printf.sprintf "m%d" k) in
  if slot < miss_stationary_per_block then begin
    let states = int_of_float (log_lerp 30. 200.99 stat_u.(slot)) in
    let size = states - 1 in
    let sigma2 = if Rng.uniform extra < 0.5 then 1. else 10. in
    let p = builtin_onoff ~size ~sigma2 in
    let mean_rate =
      p.Onoff.capacity
      -. float_of_int size *. p.Onoff.peak_rate *. p.Onoff.off_to_on
         /. (p.Onoff.on_to_off +. p.Onoff.off_to_on)
    in
    let drain = nudge k (mean_rate *. lerp 1.1 1.5 (Rng.uniform extra)) in
    let line =
      Json.to_string
        (Json.Obj
           [ ("id", id); ("kind", Json.Str "stationary"); ("model", Json.Str "onoff");
             ("size", Json.Num (float_of_int size)); ("sigma2", Json.Num sigma2);
             ("drain", Json.Num drain); ("regularize", Json.Num 0.5) ])
    in
    { line; check = Onoff_stationary p; states; stationary = true }
  end
  else begin
    let u = multi_u.(slot - miss_stationary_per_block) in
    let size = 100 + Rng.int_below extra 501 in
    let target_ms = log_lerp 10. 80. u in
    let t_max = nudge k (multi_t_max ~size ~target_ms) in
    let line =
      Json.to_string
        (Json.Obj
           [ ("id", id); ("model", Json.Str "multi");
             ("size", Json.Num (float_of_int size)); ("times", nums (ramp t_max));
             ("order", Json.Num 3.) ])
    in
    { line; check = Moments; states = (2 * size) + 1; stationary = false }
  end

(* ------------------------------------------------------------------ *)
(* serve-hit: a fixed key pool, drawn Zipf-skewed                      *)

let hit_keys = 96
let hit_skew = 1.0
let hit_models = [| "onoff"; "repair"; "multi" |]

(* Key [k]'s model and size depend on [k] only (a low-discrepancy ladder
   over 50–1000, models in turn), up to ±3% seeded jitter, so the Zipf
   head costs the same under every seed; the seed draws horizons and
   variances, which change every digest but not the per-hit cost. *)
let hit_key ~seed k =
  let rng = rng_for ~seed (1_000_000 + k) in
  let model = hit_models.(k mod Array.length hit_models) in
  let ladder = Float.rem ((float_of_int k +. 0.5) *. golden) 1. in
  let size =
    Int.max 50
      (Int.min 1000
         (int_of_float (log_lerp 50. 1000. ladder *. lerp 0.97 1.03 (Rng.uniform rng))))
  in
  let sigma2 = if Rng.uniform rng < 0.5 then 1. else 10. in
  (* qt between 50 and 150 keeps each warm-up solve at a few ms. *)
  let qt = lerp 50. 150. (Rng.uniform rng) in
  let q =
    match model with
    | "onoff" -> Onoff.uniformization_rate (builtin_onoff ~size ~sigma2)
    | "repair" -> (0.2 *. float_of_int size) +. 3.
    | _ -> (0.1 *. float_of_int size) +. 5.
  in
  let t = qt /. q in
  let line =
    Json.to_string
      (Json.Obj
         ([ ("id", Json.Str (Printf.sprintf "h%d" k)); ("model", Json.Str model);
            ("size", Json.Num (float_of_int size)) ]
         @ (if model = "onoff" then [ ("sigma2", Json.Num sigma2) ] else [])
         @ [ ("times", nums [| 0.5 *. t; t |]); ("order", Json.Num 3.) ]))
  in
  let check = if model = "onoff" then Onoff_moments (builtin_onoff ~size ~sigma2) else Moments in
  let states = if model = "multi" then (2 * size) + 1 else size + 1 in
  { line; check; states; stationary = false }

let hit_pool ~seed = Array.init hit_keys (hit_key ~seed)

(* Size bands for the per-band hit-path timings. *)
let band_names = [| "small"; "medium"; "large" |]
let band_of_states states = if states < 200 then 0 else if states < 600 then 1 else 2
