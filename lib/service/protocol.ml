(* The nimbled wire protocol: one frame per request or reply.

   A frame is a single header line followed by an exact-length binary
   body:

     uas/<proto> <TAG> <len> <md5hex>\n<body: len bytes>

   The header is versioned (a daemon and client from different
   releases fail fast with [Version_mismatch], not a hang), the length
   is bounded (an absurd length is [Oversized] before any allocation),
   and the checksum covers the body (a reply corrupted in flight — or
   by the service.reply:corrupt fault — classifies as
   [Checksum_mismatch] at the receiver, which degrades instead of
   consuming garbage).  Every malformed input maps to a typed [error];
   nothing in this module raises on wire data. *)

let proto_version = 1
let magic = Printf.sprintf "uas/%d" proto_version

(* Generous for rendered tables, small enough that a hostile length
   can't balloon the daemon: 1 MiB. *)
let default_max_frame = 1 lsl 20

(* The header line is tiny; reading stops well before this. *)
let max_header_len = 256

type tag =
  | Hello
  | Plan
  | Estimate
  | Stats
  | Health
  | Drain
  | Reply_ok
  | Reply_err
  | Reply_busy

let tag_name = function
  | Hello -> "HELLO"
  | Plan -> "PLAN"
  | Estimate -> "ESTIMATE"
  | Stats -> "STATS"
  | Health -> "HEALTH"
  | Drain -> "DRAIN"
  | Reply_ok -> "OK"
  | Reply_err -> "ERR"
  | Reply_busy -> "BUSY"

let all_tags =
  [ Hello; Plan; Estimate; Stats; Health; Drain; Reply_ok; Reply_err;
    Reply_busy ]

let tag_of_string s =
  List.find_opt (fun t -> String.equal (tag_name t) s) all_tags

type frame = { tag : tag; body : string }

type error =
  | Closed  (** orderly EOF at a frame boundary — not a fault *)
  | Truncated of string  (** EOF or short read inside a frame *)
  | Oversized of { len : int; max : int }
  | Garbage of string  (** unparseable header or unknown tag *)
  | Version_mismatch of string  (** a uas/<n> header from another era *)
  | Checksum_mismatch  (** body does not match the header md5 *)

let error_message = function
  | Closed -> "connection closed"
  | Truncated what -> Printf.sprintf "truncated frame (%s)" what
  | Oversized { len; max } ->
    Printf.sprintf "oversized frame (%d bytes, limit %d)" len max
  | Garbage what -> Printf.sprintf "garbage frame (%s)" what
  | Version_mismatch m ->
    Printf.sprintf "protocol version mismatch (got %s, speaking %s)" m magic
  | Checksum_mismatch -> "frame checksum mismatch"

(* ---- encoding ---- *)

let encode { tag; body } =
  Printf.sprintf "%s %s %d %s\n%s" magic (tag_name tag) (String.length body)
    (Digest.to_hex (Digest.string body))
    body

(* ---- header parsing ---- *)

let parse_header ~max_len line : (tag * int * string, error) result =
  match String.split_on_char ' ' line with
  | [ m; tag_s; len_s; md5 ] ->
    if not (String.equal m magic) then
      if String.length m >= 4 && String.equal (String.sub m 0 4) "uas/" then
        Error (Version_mismatch m)
      else Error (Garbage (Printf.sprintf "bad magic %S" m))
    else (
      match tag_of_string tag_s with
      | None -> Error (Garbage (Printf.sprintf "unknown tag %S" tag_s))
      | Some tag -> (
        match int_of_string_opt len_s with
        | None -> Error (Garbage (Printf.sprintf "bad length %S" len_s))
        | Some len when len < 0 ->
          Error (Garbage (Printf.sprintf "bad length %S" len_s))
        | Some len when len > max_len -> Error (Oversized { len; max = max_len })
        | Some len ->
          if String.length md5 <> 32 then
            Error (Garbage "bad checksum field")
          else Ok (tag, len, md5)))
  | _ -> Error (Garbage "malformed header line")

let check_body ~md5 body =
  if String.equal (Digest.to_hex (Digest.string body)) md5 then Ok body
  else Error Checksum_mismatch

(* ---- string decoding (tests, and anywhere a frame is in memory) ---- *)

let decode ?(max_len = default_max_frame) s : (frame, error) result =
  if String.length s = 0 then Error Closed
  else
    match String.index_opt s '\n' with
    | None ->
      if String.length s > max_header_len then
        Error (Garbage "unterminated header")
      else Error (Truncated "no header terminator")
    | Some nl -> (
      match parse_header ~max_len (String.sub s 0 nl) with
      | Error _ as e -> e
      | Ok (tag, len, md5) ->
        let avail = String.length s - nl - 1 in
        if avail < len then
          Error
            (Truncated (Printf.sprintf "body: %d of %d bytes" avail len))
        else if avail > len then
          Error (Garbage "trailing bytes after frame")
        else (
          match check_body ~md5 (String.sub s (nl + 1) len) with
          | Ok body -> Ok { tag; body }
          | Error _ as e -> e))

(* ---- channel I/O ---- *)

(* Read the header line byte-by-byte (bounded), never trusting the
   peer to terminate it. *)
let read_header_line ic : (string, error) result =
  let buf = Buffer.create 64 in
  let rec go () =
    if Buffer.length buf > max_header_len then
      Error (Garbage "unterminated header")
    else
      match input_char ic with
      | '\n' -> Ok (Buffer.contents buf)
      | c ->
        Buffer.add_char buf c;
        go ()
      | exception End_of_file ->
        if Buffer.length buf = 0 then Error Closed
        else Error (Truncated "header")
  in
  go ()

let read_frame ?(max_len = default_max_frame) ic : (frame, error) result =
  match read_header_line ic with
  | Error _ as e -> e
  | Ok line -> (
    match parse_header ~max_len line with
    | Error _ as e -> e
    | Ok (tag, len, md5) -> (
      match really_input_string ic len with
      | body -> (
        match check_body ~md5 body with
        | Ok body -> Ok { tag; body }
        | Error _ as e -> e)
      | exception End_of_file -> Error (Truncated "body")))

let write_frame oc frame =
  output_string oc (encode frame);
  flush oc
