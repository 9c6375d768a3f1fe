(* keep in sync with (version ...) in dune-project *)
let package_version = "0.8.0"

let version_string =
  Printf.sprintf "unroll_and_squash %s (trajectory schema v%d)"
    package_version Trajectory.version
