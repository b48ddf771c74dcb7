(* What one run reports, and how it is printed: a human-readable table
   (every metric with its unit and sample count) and, as the last line
   of standard output, the JSON object the benchmark contract asks for. *)

module Json = Mrm_util.Json

type metric = { name : string; value : float; unit_ : string; samples : int }

type t = {
  attempted : int;
  failed : int;
  correct : bool;
  end_to_end : metric list;
  layers : metric list;  (** per-layer metrics, traced run only *)
  notes : string list;  (** why [correct] is false, first failures *)
}

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

(* The per-layer metrics of the benchmark, (name, unit) in report
   order, as BENCHMARK.json's [per_layer] lists them. *)
let layer_spec path =
  let fail why = failwith (Printf.sprintf "%s: %s" path why) in
  let text = match Sysinfo.read_file path with Some t -> t | None -> fail "cannot read it" in
  let json = match Json.parse text with Ok j -> j | Error e -> fail e in
  match Option.bind (Json.member "per_layer" json) Json.to_list with
  | None -> fail "no per_layer list"
  | Some entries ->
      List.map
        (fun e ->
          match
            ( Option.bind (Json.member "name" e) Json.to_str,
              Option.bind (Json.member "unit" e) Json.to_str )
          with
          | Some name, Some unit_ -> (name, unit_)
          | _ -> fail "a per_layer entry without name or unit")
        entries

(* A workload's layer metrics in [spec] order, completed with the ones
   it does not run (0, with no samples). A measured metric the spec
   does not list, or lists with another unit, fails the run. *)
let all_layers ~spec measured =
  List.iter
    (fun m ->
      match List.assoc_opt m.name spec with
      | Some u when u = m.unit_ -> ()
      | Some u -> failwith (Printf.sprintf "per-layer metric %s is in %s, not %s" m.name m.unit_ u)
      | None -> failwith (Printf.sprintf "per-layer metric %s is not in BENCHMARK.json" m.name))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) measured with
      | Some m -> m
      | None -> { name; value = 0.; unit_; samples = 0 })
    spec

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-56s %16.6g %-6s n=%d\n" m.name m.value m.unit_ m.samples)
    metrics

(* [print ~layers r]: the per-layer metrics in [layers] order when
   given (a traced run), else the end-to-end ones. *)
let print ?layers r =
  let shown = match layers with Some spec -> all_layers ~spec r.layers | None -> r.end_to_end in
  let trace = Option.is_some layers in
  List.iter (fun n -> Printf.printf "note: %s\n" n) r.notes;
  print_table (if trace then "per-layer metrics (traced run)" else "end-to-end metrics") shown;
  Printf.printf "attempted %d, failed %d, correct %b\n" r.attempted r.failed r.correct;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool r.correct);
            ("attempted", Json.Num (float_of_int r.attempted));
            ("failed", Json.Num (float_of_int r.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
                   shown) );
          ]))
