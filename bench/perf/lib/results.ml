(* BENCHMARK.json — the one place metric units, directions and bounds
   are declared — and the results line every run prints last:

     {"correct": b, "attempted": n, "failed": n,
      "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}

   A run renders its metrics through the declarations, so a value whose
   name BENCHMARK.json does not declare can never be printed. *)

type metric = {
  m_name : string;
  m_unit : string;
  m_better : Verdict.better;
  m_bound : float option;  (** end-to-end metrics only *)
}

type spec = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

(* A name starts with a letter or a digit and has at most 64 letters,
   digits, '_', '.' and '-'. *)
let valid_name s =
  let n = String.length s in
  let ok = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok s

let ( let* ) = Result.bind

let field k j =
  match Json.member k j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing key %S" k)

let str k j =
  match field k j with
  | Ok (Json.Str s) -> Ok s
  | Ok _ -> Error (Printf.sprintf "%S is not a string" k)
  | Error _ as e -> e

let list k j =
  match field k j with
  | Ok (Json.Arr vs) -> Ok vs
  | Ok _ -> Error (Printf.sprintf "%S is not a list" k)
  | Error _ as e -> e

let map_result f xs =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    xs (Ok [])

let metric_of_json ~with_bound j =
  let* name = str "name" j in
  let* unit_ = str "unit" j in
  let* better_s = str "better" j in
  let* better =
    match Verdict.better_of_string better_s with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "metric %s: better must be lower or higher" name)
  in
  let* bound =
    if not with_bound then Ok None
    else
      match Json.member "bound" j with
      | Some (Json.Num b) -> Ok (Some b)
      | _ -> Error (Printf.sprintf "metric %s: missing numeric bound" name)
  in
  if not (valid_name name) then Error (Printf.sprintf "invalid metric name %S" name)
  else Ok { m_name = name; m_unit = unit_; m_better = better; m_bound = bound }

let spec_of_json j =
  let* ws = list "workloads" j in
  let* workloads = map_result (str "name") ws in
  let* e2e = list "end_to_end" j in
  let* end_to_end = map_result (metric_of_json ~with_bound:true) e2e in
  let* pl = list "per_layer" j in
  let* per_layer = map_result (metric_of_json ~with_bound:false) pl in
  Ok { workloads; end_to_end; per_layer }

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error m -> Error m

let load_spec path =
  let* text = read_file path in
  let* j = Json.parse text in
  Result.map_error (fun m -> path ^ ": " ^ m) (spec_of_json j)

let find_metric spec name =
  List.find_opt
    (fun m -> String.equal m.m_name name)
    (spec.end_to_end @ spec.per_layer)

(* ---- the results line ---- *)

type result_line = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* Names in [values] that BENCHMARK.json does not declare. *)
let undeclared spec values =
  List.filter_map
    (fun (name, _) ->
      match find_metric spec name with None -> Some name | Some _ -> None)
    values

let render spec (r : result_line) : (string, string) result =
  match undeclared spec r.metrics with
  | _ :: _ as names ->
    Error ("undeclared metric(s): " ^ String.concat ", " names)
  | [] ->
    let metric (name, v) =
      let m = Option.get (find_metric spec name) in
      (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.m_unit) ])
    in
    Ok
      (Json.to_string
         (Json.Obj
            [ ("correct", Json.Bool r.correct);
              ("attempted", Json.Num (float_of_int r.attempted));
              ("failed", Json.Num (float_of_int r.failed));
              ("metrics", Json.Obj (List.map metric r.metrics)) ]))

let parse_line (line : string) : (result_line, string) result =
  let* j = Json.parse line in
  let int_field k =
    match Json.member k j with
    | Some (Json.Num f) when Float.is_integer f -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "%S is not a whole number" k)
  in
  let* correct =
    match Json.member "correct" j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "\"correct\" is not a boolean"
  in
  let* attempted = int_field "attempted" in
  let* failed = int_field "failed" in
  let* metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
      map_result
        (fun (k, v) ->
          match Json.member "value" v with
          | Some (Json.Num x) -> Ok (k, x)
          | _ -> Error (Printf.sprintf "metric %s has no numeric value" k))
        kvs
    | _ -> Error "\"metrics\" is not an object"
  in
  Ok { correct; attempted; failed; metrics }

(* A saved run: its header line ("# perf workload=W seed=N ...") names
   the workload, its last line is the results object. *)
type run_file = { rf_path : string; rf_workload : string; rf_result : result_line }

let header_prefix = "# perf "

let header ~workload ~seed ~seconds ~trace =
  Printf.sprintf "%sworkload=%s seed=%d seconds=%g trace=%d" header_prefix
    workload seed seconds (if trace then 1 else 0)

let workload_of_header line =
  let np = String.length header_prefix in
  if String.length line > np && String.sub line 0 np = header_prefix then
    String.split_on_char ' ' (String.sub line np (String.length line - np))
    |> List.find_map (fun kv ->
           match String.split_on_char '=' kv with
           | [ "workload"; w ] -> Some w
           | _ -> None)
  else None

let load_run path =
  let* text = read_file path in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let* workload =
    match List.find_map workload_of_header lines with
    | Some w -> Ok w
    | None -> Error (path ^ ": no '# perf workload=...' header line")
  in
  let* last =
    match List.rev lines with
    | l :: _ -> Ok l
    | [] -> Error (path ^ ": empty file")
  in
  let* r = Result.map_error (fun m -> path ^ ": " ^ m) (parse_line last) in
  Ok { rf_path = path; rf_workload = workload; rf_result = r }
