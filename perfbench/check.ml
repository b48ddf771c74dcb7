(* Output checks. Every operation the benchmark counts as ok has passed
   one of these; a failed check counts against ok_ratio exactly like an
   error response. *)

module Json = Mrm_util.Json
module Batch = Mrm_batch.Batch
module Onoff = Mrm_models.Onoff

let mean_tol = 1e-8
let mass_tol = 1e-9
let marginal_tol = 1e-8
let residual_max = 1e-10

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* E[B(t)] of the ON–OFF model started with every source OFF:
   C t - N r beta/(alpha+beta) (t - (1 - e^-(alpha+beta)t)/(alpha+beta)). *)
let onoff_mean (p : Onoff.params) t =
  let s = p.Onoff.on_to_off +. p.Onoff.off_to_on in
  (p.Onoff.capacity *. t)
  -. float_of_int p.Onoff.sources *. p.Onoff.peak_rate *. p.Onoff.off_to_on /. s
     *. (t -. (-.Float.expm1 (-.s *. t) /. s))

(* Raw moments [m_0 .. m_order] at time [t]. *)
let moments (check : Gen.check) ~t values =
  let n = Array.length values in
  if n < 2 then fail "t=%g: %d moments, expected at least 2" t n
  else if not (Array.for_all Float.is_finite values) then fail "t=%g: non-finite moment" t
  else if Float.abs (values.(0) -. 1.) > mass_tol then
    fail "t=%g: moment 0 is %.17g, not 1" t values.(0)
  else if n > 2 && values.(2) -. (values.(1) *. values.(1)) < 0. then
    fail "t=%g: negative variance" t
  else
    match check with
    | Gen.Onoff_moments p ->
        let exact = onoff_mean p t in
        let rel = Float.abs (values.(1) -. exact) /. Float.abs exact in
        if rel <= mean_tol then Ok ()
        else fail "t=%g: mean %.17g vs closed form %.17g (rel %.2e)" t values.(1) exact rel
    | Gen.Moments -> Ok ()
    | Gen.Onoff_stationary _ -> fail "stationary check applied to moments"

let stationary (check : Gen.check) ~marginal ~residual =
  match check with
  | Gen.Onoff_stationary p ->
      let exact = Onoff.stationary p in
      if Array.length marginal <> Array.length exact then
        fail "marginal has %d states, expected %d" (Array.length marginal)
          (Array.length exact)
      else if not (Float.is_finite residual && residual < residual_max) then
        fail "residual %.3e not below %.0e" residual residual_max
      else begin
        let worst = ref 0. in
        Array.iteri
          (fun i x ->
            let d = Float.abs (x -. exact.(i)) in
            (* [not (d <= worst)] also catches NaN. *)
            if not (d <= !worst) then worst := d)
          marginal;
        if !worst <= marginal_tol then Ok ()
        else fail "marginal off the product form by %.3e" !worst
      end
  | Gen.Onoff_moments _ | Gen.Moments -> fail "moments check applied to a stationary result"

let rec all = function
  | [] -> Ok ()
  | r :: rest -> (
      match r with Ok () -> all rest | Error _ as e -> e)

(* An in-process Batch outcome (paper-sweep). *)
let outcome check (o : Batch.outcome) =
  match o.Batch.result with
  | Error e -> fail "solve failed: %s" e
  | Ok (Batch.Density d) ->
      stationary check ~marginal:d.Batch.marginal ~residual:d.Batch.residual
  | Ok (Batch.Points [||]) -> fail "no time points"
  | Ok (Batch.Points points) ->
      all
        (Array.to_list
           (Array.map (fun (p : Batch.point) -> moments check ~t:p.Batch.time p.Batch.values) points))

let floats json =
  match Json.to_list json with
  | None -> None
  | Some items ->
      let xs = List.filter_map Json.to_float items in
      if List.length xs = List.length items then Some (Array.of_list xs) else None

let field key json =
  match Json.member key json with Some v -> Ok v | None -> fail "missing %S" key

(* One response line of the service. *)
let response check line =
  let* json = Json.parse line in
  let* status = field "status" json in
  match Json.to_str status with
  | Some "ok" -> (
      match check with
      | Gen.Onoff_stationary _ ->
          let* st = field "stationary" json in
          let* marginal = field "marginal" st in
          let* residual = field "residual" st in
          (match (floats marginal, Json.to_float residual) with
          | Some marginal, Some residual -> stationary check ~marginal ~residual
          | _ -> fail "malformed stationary object")
      | Gen.Onoff_moments _ | Gen.Moments ->
          let* points = field "points" json in
          (match Json.to_list points with
          | None | Some [] -> fail "no points"
          | Some points ->
              all
                (List.map
                   (fun p ->
                     match
                       ( Option.bind (Json.member "t" p) Json.to_float,
                         Option.bind (Json.member "moments" p) floats )
                     with
                     | Some t, Some values -> moments check ~t values
                     | _ -> fail "malformed point")
                   points)))
  | _ ->
      let code = Option.value ~default:"" (Option.bind (Json.member "code" json) Json.to_str) in
      let msg = Option.value ~default:"" (Option.bind (Json.member "error" json) Json.to_str) in
      fail "error response %s: %s" code msg

(* The line a cache hit must return: the key's warm-up response, byte
   for byte, with only the trailing cached flag set. *)
let expected_hit warm =
  let miss = "\"cached\":false}" and hit = "\"cached\":true}" in
  let n = String.length warm and m = String.length miss in
  if n >= m && String.sub warm (n - m) m = miss then Ok (String.sub warm 0 (n - m) ^ hit)
  else fail "warm-up response does not end in %s" miss

let hit ~expected line =
  if String.equal line expected then Ok ()
  else fail "cache hit differs from its warm-up response"
