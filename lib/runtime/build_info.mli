(** Build identification for the CLIs' [--version] output, so cached
    artifacts and committed JSON snapshots can be traced to a build. *)

(** The one-line [--version] string: package name, package version and
    the trajectory JSON schema version. *)
val version_string : string
