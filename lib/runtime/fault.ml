(* Deterministic fault plans behind the chaos tests.

   A fault plan is a comma-separated list of specs, each
   [site[=label]:kind:nth]: the [nth] matching hit of the named
   injection site fires the fault of that [kind], exactly once.
   Everything is counter-based — no random number generator anywhere —
   so a plan replays exactly on a sequential run, and a spec whose
   label pins a scope (the sweep engine publishes one scope per
   (benchmark, version) cell) replays exactly at any pool size.

   A plan is an immutable value parsed once (Session.start reads the
   environment and the --fault flag) and then hit from every domain of
   the worker pool: the per-spec hit counters are atomics, the scope
   comes from the caller's run context, and only the pool's
   cancellation flag is domain-local. *)

let env_var = "UAS_FAULT"

type kind = Raise | Stall | Corrupt

let kind_name = function
  | Raise -> "raise"
  | Stall -> "stall"
  | Corrupt -> "corrupt"

let kind_of_string = function
  | "raise" -> Some Raise
  | "stall" -> Some Stall
  | "corrupt" -> Some Corrupt
  | _ -> None

type spec = {
  sp_site : string;
  sp_label : string option;
  sp_kind : kind;
  sp_nth : int;
  sp_count : int Atomic.t;  (** matching hits so far *)
}

exception Injected of { site : string; kind : kind }

let () =
  Printexc.register_printer (function
    | Injected { site; kind } ->
      Some
        (Printf.sprintf "injected fault at site %s (kind %s)" site
           (kind_name kind))
    | _ -> None)

(* ---- plans ---- *)

type t = { text : string; specs : spec list }

let none = { text = ""; specs = [] }
let to_string t = t.text

let parse_spec s : (spec, string) result =
  match String.split_on_char ':' (String.trim s) with
  | [ site_part; kind_s; nth_s ] -> (
    let site, label =
      match String.index_opt site_part '=' with
      | None -> (site_part, None)
      | Some i ->
        ( String.sub site_part 0 i,
          Some (String.sub site_part (i + 1) (String.length site_part - i - 1))
        )
    in
    if String.equal site "" then Error (Printf.sprintf "%S: empty site" s)
    else
      match kind_of_string kind_s with
      | None ->
        Error
          (Printf.sprintf "%S: unknown fault kind %s (raise, stall, corrupt)"
             s kind_s)
      | Some kind -> (
        match int_of_string_opt nth_s with
        | Some nth when nth >= 1 ->
          Ok
            { sp_site = site;
              sp_label = label;
              sp_kind = kind;
              sp_nth = nth;
              sp_count = Atomic.make 0 }
        | Some _ | None ->
          Error (Printf.sprintf "%S: nth must be a positive integer" s)))
  | _ ->
    Error
      (Printf.sprintf "%S: expected site[=label]:kind:nth (kinds: raise, \
                       stall, corrupt)"
         s)

(* Every parse builds fresh spec records, so each plan value counts its
   own hits. *)
let parse text : (t, string) result =
  let parts =
    List.filter
      (fun s -> not (String.equal (String.trim s) ""))
      (String.split_on_char ',' text)
  in
  if parts = [] then Error "empty fault plan"
  else
    let rec go acc = function
      | [] -> Ok { text; specs = List.rev acc }
      | p :: rest -> (
        match parse_spec p with
        | Ok sp -> go (sp :: acc) rest
        | Error m -> Error m)
    in
    go [] parts

(* ---- domain-local cancellation ---- *)

let cancel_key : bool Atomic.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_cancel flag = Domain.DLS.set cancel_key flag

let cancel_requested () =
  match Domain.DLS.get cancel_key with
  | Some flag -> Atomic.get flag
  | None -> false

(* ---- hitting a site ---- *)

let matches sp ~scope ~site ~label =
  String.equal sp.sp_site site
  &&
  match sp.sp_label with
  | None -> true
  | Some want ->
    (match label with Some got -> String.equal want got | None -> false)
    || List.exists (String.equal want) scope

let hit t ~scope ?label site : kind option =
  match t.specs with
  | [] -> None
  | sps ->
    List.find_map
      (fun sp ->
        if matches sp ~scope ~site ~label then
          let n = Atomic.fetch_and_add sp.sp_count 1 + 1 in
          if n = sp.sp_nth then Some sp.sp_kind else None
        else None)
      sps

(* ---- the stall fault ---- *)

let stall_cap = ref 1.0
let set_stall_cap s = stall_cap := Float.max 0.0 s

(* Spin cooperatively: give a pool watchdog the chance to mark the task
   [Timed_out] and cancel us; without one, give up after the cap so an
   unsupervised run degrades to an ordinary injected failure instead of
   hanging. *)
let stall ~site () =
  let t0 = Unix.gettimeofday () in
  let rec spin () =
    if cancel_requested () || Unix.gettimeofday () -. t0 >= !stall_cap then
      raise (Injected { site; kind = Stall })
    else begin
      Unix.sleepf 0.002;
      spin ()
    end
  in
  spin ()

(* For sites that degrade instead of raising: act out a fired kind
   ([stall] spins first) and return the injected fault's message. *)
let absorb ~site kind =
  (if kind = Stall then try stall ~site () with Injected _ -> ());
  Printexc.to_string (Injected { site; kind })

(* The one-line site helper for code that cannot act on [Corrupt]
   (there is nothing generic to corrupt): every kind degenerates to an
   exception, except [Stall], which spins first. *)
let raise_if_armed t ~scope ?label site =
  match hit t ~scope ?label site with
  | None -> ()
  | Some Stall -> stall ~site ()
  | Some ((Raise | Corrupt) as k) -> raise (Injected { site; kind = k })
