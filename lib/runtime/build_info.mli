(** Build identification for the CLIs' [--version] output, so cached
    artifacts and committed JSON snapshots can be traced to a build. *)

(** The opam package version; kept in sync with [(version ...)] in
    [dune-project]. *)
val package_version : string

(** The one-line [--version] string: package name, package version and
    the trajectory JSON schema version. *)
val version_string : string
