(* Thread-safe pass instrumentation.  A sink is two hashtables behind
   one mutex; entries are immutable records replaced wholesale, so a
   snapshot under the lock is consistent without copying.  A span on the
   [off] sink is a direct call, and its tables stay empty. *)

type span_stat = { calls : int; total_s : float; max_s : float }

type t = {
  on : bool;
  lock : Mutex.t;
  span_tbl : (string, span_stat) Hashtbl.t;
  counter_tbl : (string, int) Hashtbl.t;
}

let create () =
  { on = true;
    lock = Mutex.create ();
    span_tbl = Hashtbl.create 32;
    counter_tbl = Hashtbl.create 32 }

let off = { (create ()) with on = false }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record t name dt =
  with_lock t (fun () ->
      let prev =
        match Hashtbl.find_opt t.span_tbl name with
        | Some s -> s
        | None -> { calls = 0; total_s = 0.0; max_s = 0.0 }
      in
      Hashtbl.replace t.span_tbl name
        { calls = prev.calls + 1;
          total_s = prev.total_s +. dt;
          max_s = Float.max prev.max_s dt })

let span t name f =
  if not t.on then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let finally () = record t name (Unix.gettimeofday () -. t0) in
    Fun.protect ~finally f
  end

let incr ?(by = 1) t name =
  if t.on then
    with_lock t (fun () ->
        let prev =
          match Hashtbl.find_opt t.counter_tbl name with Some v -> v | None -> 0
        in
        Hashtbl.replace t.counter_tbl name (prev + by))

let snapshot t tbl =
  with_lock t (fun () ->
      Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [])

let spans t =
  snapshot t t.span_tbl
  |> List.sort (fun (na, a) (nb, b) ->
         match Float.compare b.total_s a.total_s with
         | 0 -> String.compare na nb
         | c -> c)

let counters t =
  snapshot t t.counter_tbl
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_summary ppf t =
  let sp = spans t and cs = counters t in
  if sp = [] && cs = [] then
    Fmt.pf ppf "(no instrumentation recorded — was --timings on?)@\n"
  else begin
    if sp <> [] then begin
      Fmt.pf ppf "%-24s %8s %12s %12s %12s@\n" "span" "calls" "total(ms)"
        "mean(ms)" "max(ms)";
      List.iter
        (fun (name, s) ->
          Fmt.pf ppf "%-24s %8d %12.2f %12.3f %12.3f@\n" name s.calls
            (1000.0 *. s.total_s)
            (1000.0 *. s.total_s /. float_of_int (max 1 s.calls))
            (1000.0 *. s.max_s))
        sp
    end;
    if cs <> [] then begin
      Fmt.pf ppf "%-24s %8s@\n" "counter" "value";
      List.iter (fun (name, v) -> Fmt.pf ppf "%-24s %8d@\n" name v) cs
    end
  end

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let span_fields =
    List.map
      (fun (name, s) ->
        Printf.sprintf
          "\"%s\":{\"calls\":%d,\"total_ms\":%.3f,\"mean_ms\":%.4f,\"max_ms\":%.4f}"
          (json_escape name) s.calls
          (1000.0 *. s.total_s)
          (1000.0 *. s.total_s /. float_of_int (max 1 s.calls))
          (1000.0 *. s.max_s))
      (spans t)
  in
  let counter_fields =
    List.map
      (fun (name, v) -> Printf.sprintf "\"%s\":%d" (json_escape name) v)
      (counters t)
  in
  Printf.sprintf "{\"spans\":{%s},\"counters\":{%s}}"
    (String.concat "," span_fields)
    (String.concat "," counter_fields)
