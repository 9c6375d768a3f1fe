(* Structured diagnostics: the data type every user-facing failure of
   the compilation pipeline is reported through. *)

type severity = Error | Warning | Note

type loc = { loc_loop : string option; loc_stmt : string option }

type t = {
  d_severity : severity;
  d_pass : string;
  d_loc : loc;
  d_message : string;
}

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"
  | Note -> Fmt.string ppf "note"

let pp ppf d =
  Fmt.pf ppf "%a[%s]" pp_severity d.d_severity d.d_pass;
  (match d.d_loc.loc_loop with
  | Some i -> Fmt.pf ppf " at loop %s" i
  | None -> ());
  (match d.d_loc.loc_stmt with
  | Some s -> Fmt.pf ppf " at `%s'" s
  | None -> ());
  Fmt.pf ppf ": %s" d.d_message

let to_string d = Fmt.str "%a" pp d

let make severity ~pass ?loop ?stmt fmt =
  Fmt.kstr
    (fun msg ->
      { d_severity = severity;
        d_pass = pass;
        d_loc = { loc_loop = loop; loc_stmt = stmt };
        d_message = msg })
    fmt

let errorf ~pass ?loop ?stmt fmt = make Error ~pass ?loop ?stmt fmt

exception Failed of t

let () =
  Printexc.register_printer (function
    | Failed d -> Some (to_string d)
    | _ -> None)

let fail d = raise (Failed d)

(* The exceptions every layer may raise past a pass: each transform
   catches its own module's failure exception and returns it as a
   value, so only these shared ones are left to translate. *)
let of_exn ~pass ?loop (exn : exn) : t option =
  let err fmt = Fmt.kstr (fun m -> Some (errorf ~pass ?loop "%s" m)) fmt in
  match exn with
  | Failed d -> Some d
  | Uas_runtime.Fault.Injected _ -> err "%s" (Printexc.to_string exn)
  | Uas_ir.Types.Ir_error m -> err "%s" m
  | Not_found -> err "no loop nest with the requested outer index"
  | Failure m -> err "%s" m
  | Invalid_argument m -> err "%s" m
  | _ -> None
