(* Structured diagnostics: the data type every user-facing failure of
   the compilation pipeline is reported through. *)

type t = { d_pass : string; d_loop : string option; d_message : string }

let pp ppf d =
  Fmt.pf ppf "error[%s]" d.d_pass;
  (match d.d_loop with Some i -> Fmt.pf ppf " at loop %s" i | None -> ());
  Fmt.pf ppf ": %s" d.d_message

let to_string d = Fmt.str "%a" pp d

let errorf ~pass ?loop fmt =
  Fmt.kstr (fun msg -> { d_pass = pass; d_loop = loop; d_message = msg }) fmt

(* The exceptions every layer may raise past a pass: each transform
   catches its own module's failure exception and returns it as a
   value, so only these shared ones are left to translate. *)
let of_exn ~pass ?loop (exn : exn) : t option =
  let err fmt = Fmt.kstr (fun m -> Some (errorf ~pass ?loop "%s" m)) fmt in
  match exn with
  | Uas_runtime.Fault.Injected _ -> err "%s" (Printexc.to_string exn)
  | Uas_ir.Types.Ir_error m -> err "%s" m
  | Not_found -> err "no loop nest with the requested outer index"
  | Failure m -> err "%s" m
  | Invalid_argument m -> err "%s" m
  | _ -> None
