(* The pass abstraction and the pipeline runner. *)

module Instrument = Uas_runtime.Instrument

type t = {
  name : string;
  run : Cu.t -> (Cu.t, Diag.t) result;
}

let v name run = { name; run }

let analysis name f =
  { name;
    run =
      (fun cu ->
        f cu;
        Ok cu) }

let transform name f = { name; run = (fun cu -> Ok (f cu)) }

type hook = pass:string -> Cu.t -> unit

let run_one ?after cu (p : t) =
  let result =
    Instrument.span ("pass." ^ p.name) (fun () ->
        match
          Uas_runtime.Fault.raise_if_armed ~label:p.name "pass.run";
          p.run cu
        with
        | result -> result
        | exception exn -> (
          match Diag.of_exn ~pass:p.name ~loop:(Cu.outer_index cu) exn with
          | Some d -> Error d
          | None -> raise exn))
  in
  (match result with
  | Ok cu' -> ( match after with Some h -> h ~pass:p.name cu' | None -> ())
  | Error _ -> Instrument.incr "pass.failed");
  result

let run ?after cu passes =
  List.fold_left
    (fun acc p -> match acc with Error _ -> acc | Ok cu -> run_one ?after cu p)
    (Ok cu) passes

let fan_out ?jobs ?timeout_s ?retries ~scope ~failed f inputs =
  Uas_runtime.Parallel.map_results ?jobs ?timeout_s ?retries
    (fun x -> Uas_runtime.Fault.with_scope (scope x) (fun () -> f x))
    inputs
  |> List.map2
       (fun x -> function
         | Ok y -> y
         | Error tf ->
           Instrument.incr "sweep.task-failures";
           failed x
             (Diag.errorf ~pass:"task" "%s"
                (Uas_runtime.Parallel.Task_failure.to_message tf)))
       inputs
