(* A minimal JSON reader and printer: enough for BENCHMARK.json, the
   one-line results objects the runs print, and the daemon's STATS
   reply.  The container ships no JSON library, and this subset
   (no surrogate-pair decoding) covers every document the benchmark
   reads. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "at byte %d: %s" !pos m))) fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then incr pos else fail "expected %C" c
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
        incr pos;
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'
        | Some '\\' -> Buffer.add_char b '\\'
        | Some '/' -> Buffer.add_char b '/'
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some 'u' when !pos + 4 < n -> (
          match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
          | Some code ->
            Buffer.add_utf_8_uchar b
              (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep);
            pos := !pos + 4
          | None -> fail "bad \\u escape")
        | _ -> fail "bad escape");
        incr pos;
        go ()
      | Some c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
        incr pos;
        go ()
      | _ -> ()
    in
    go ();
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec members acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements (v :: acc)
          | Some ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Numbers keep every digit of the measurement ("%.17g" round-trips a
   float); integral values print without a fraction. *)
let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number_to_string f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr vs -> "[" ^ String.concat ", " (List.map to_string vs) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
    ^ "}"
