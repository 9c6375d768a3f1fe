(** The nimbled wire protocol: length-prefixed, checksummed, versioned
    frames over a Unix-domain socket.

    Grammar (one frame):
    {v
    frame  = header LF body
    header = "uas/" proto SP tag SP len SP md5hex
    tag    = "HELLO" | "PLAN" | "ESTIMATE" | "STATS" | "HEALTH"
           | "DRAIN" | "OK" | "ERR" | "BUSY"
    len    = decimal byte count of body (bounded)
    md5hex = 32 hex chars, MD5 of body
    body   = len bytes, uninterpreted at this layer
    v}

    Every malformed input maps to a typed {!error} — truncated,
    oversized, garbage, wrong protocol era, bad checksum — and nothing
    here raises on wire data, so one hostile or broken peer can only
    ever cost the daemon its own connection.  See docs/SERVICE.md. *)

(** Protocol era carried in every header (["uas/1"]). *)
val proto_version : int

val magic : string

(** Default frame-size bound: 1 MiB. *)
val default_max_frame : int

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

val tag_name : tag -> string

type frame = { tag : tag; body : string }

type error =
  | Closed  (** orderly EOF at a frame boundary — not a fault *)
  | Truncated of string  (** EOF or short read inside a frame *)
  | Oversized of { len : int; max : int }
      (** header length field exceeds the bound; rejected before any
          body allocation *)
  | Garbage of string  (** unparseable header or unknown tag *)
  | Version_mismatch of string
  | Checksum_mismatch  (** body does not match the header md5 *)

val error_message : error -> string

(** [encode f] is the complete wire form (header + body). *)
val encode : frame -> string

(** Parse a complete in-memory frame; [Garbage] on trailing bytes. *)
val decode : ?max_len:int -> string -> (frame, error) result

(** Read one frame; header read is byte-bounded, body read is exact.
    [Closed] on EOF at a frame boundary, [Truncated] on EOF inside. *)
val read_frame : ?max_len:int -> in_channel -> (frame, error) result

(** Write and flush one frame. *)
val write_frame : out_channel -> frame -> unit
