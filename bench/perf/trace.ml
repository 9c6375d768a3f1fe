(* In-memory spans for the traced run.  Each span has a name, start and
   end, the span that caused it, and the request it serves; spans are
   kept in memory while the run measures and written out once, at the
   end, as Chrome trace-event JSON (load it in chrome://tracing or
   Perfetto).

   The parent stack is domain-local, so the pool's worker domains nest
   their own spans; a task started on another domain names its parent
   explicitly ([~parent]).  Threads of one domain share that stack, so
   threaded callers record finished spans with {!add} instead. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  req : string;
  tid : int;
  t0 : float;
  t1 : float;
}

type t = { lock : Mutex.t; mutable spans : span list; next : int Atomic.t }

type ctx = int * string  (* the enclosing span's id and request *)

let create () = { lock = Mutex.create (); spans = []; next = Atomic.make 1 }
let root : ctx = (0, "")
let stack : ctx list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])
let current () = match Domain.DLS.get stack with c :: _ -> c | [] -> root

let push t s =
  Mutex.lock t.lock;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock

let add t ~parent:((pid, preq) : ctx) ?req ~tid name t0 t1 =
  let id = Atomic.fetch_and_add t.next 1 in
  push t
    { id; parent = pid; name; req = Option.value req ~default:preq; tid; t0; t1 }

let with_span t ?parent ?req name f =
  let saved = Domain.DLS.get stack in
  let pid, preq = match parent with Some p -> p | None -> current () in
  let req = Option.value req ~default:preq in
  let id = Atomic.fetch_and_add t.next 1 in
  Domain.DLS.set stack ((id, req) :: saved);
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      Domain.DLS.set stack saved;
      push t
        { id; parent = pid; name; req; tid = (Domain.self () :> int); t0; t1 })
    f

let spans t =
  Mutex.lock t.lock;
  let s = t.spans in
  Mutex.unlock t.lock;
  List.rev s

let dur s = s.t1 -. s.t0

(* Self time: a span's duration minus its children's.  Children on the
   parent's own domain run nested and never overlap; a span whose
   children run on the pool's other domain too (a pass, a plan) has
   their summed time exceed its own, and its self time clamps at 0. *)
let self_times (spans : span list) : (string * float) list =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        Float.max 0.0 (dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id))
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name)))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

(* The share of [t0, t1] covered by the union of the given intervals. *)
let coverage ~t0 ~t1 (intervals : (float * float) list) =
  let sorted = List.sort compare intervals in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a (Float.max reach t0) and b = Float.min b t1 in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, t0) sorted
  in
  if t1 > t0 then covered /. (t1 -. t0) else 1.0

let write_chrome t path =
  let spans = spans t in
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let us x = Printf.sprintf "%.1f" (1e6 *. x) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": \
             %s, \"dur\": %s, \"args\": {\"id\": %d, \"parent\": %d, \"req\": \
             \"%s\"}}"
            (Perf_lib.Json.escape s.name) s.tid (us (s.t0 -. origin)) (us (dur s))
            s.id s.parent (Perf_lib.Json.escape s.req))
        spans;
      output_string oc "\n]}\n")
