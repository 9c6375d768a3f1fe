(* [perf.exe compare A... -- B...]: the parent commit's saved runs
   against the change's, one row per workload x end-to-end metric, with
   each side's median and quartiles and a {!Verdict}.  Pair runs by
   position: the i-th parent file with the i-th change file of the same
   workload, made in alternating order. *)

let fail_ratio (runs : Results.run_file list) =
  let att, fl =
    List.fold_left
      (fun (a, f) r ->
        (a + r.Results.rf_result.Results.attempted, f + r.rf_result.failed))
      (0, 0) runs
  in
  if att = 0 then 0.0 else float_of_int fl /. float_of_int att

let values name (runs : Results.run_file list) =
  List.filter_map
    (fun r -> List.assoc_opt name r.Results.rf_result.Results.metrics)
    runs

let pp_side xs =
  let q1, m, q3 = Stats.quartiles xs in
  Printf.sprintf "%10.4g [%.4g, %.4g] n=%d" m q1 q3 (List.length xs)

(* Returns the report lines and whether any pairing regressed. *)
let report (spec : Results.spec) ~(parent : Results.run_file list)
    ~(change : Results.run_file list) : string list * bool =
  let regressed = ref false in
  let on w (runs : Results.run_file list) =
    List.filter (fun r -> String.equal r.Results.rf_workload w) runs
  in
  let rows =
    List.concat_map
      (fun w ->
        let a = on w parent and b = on w change in
        if a = [] || b = [] then []
        else
          let fa = fail_ratio a and fb = fail_ratio b in
          let fail_row =
            let v = if fb > fa then Verdict.Regressed else Verdict.No_worse in
            if v = Verdict.Regressed then regressed := true;
            Printf.sprintf "%-16s %-16s %-5s %10.4g %10.4g %s" w "fail_ratio" "1"
              fa fb (Verdict.to_string v)
          in
          fail_row
          :: List.filter_map
               (fun (m : Results.metric) ->
                 match (values m.m_name a, values m.m_name b) with
                 | [], _ | _, [] -> None
                 | va, vb ->
                   let v =
                     Verdict.verdict ~better:m.m_better
                       ~bound:(Option.value ~default:0.0 m.m_bound)
                       ~floor:(Verdict.floor ~name:m.m_name ~unit_:m.m_unit)
                       va vb
                   in
                   if v = Verdict.Regressed then regressed := true;
                   let ma = Stats.median va and mb = Stats.median vb in
                   Some
                     (Printf.sprintf "%-16s %-16s %-5s %s | %s %+6.1f%% %s" w
                        m.m_name m.m_unit (pp_side va) (pp_side vb)
                        (if ma = 0.0 then 0.0 else 100.0 *. (mb -. ma) /. ma)
                        (Verdict.to_string v)))
               spec.Results.end_to_end)
      spec.Results.workloads
  in
  ( Printf.sprintf "%-16s %-16s %-5s %s | %s %7s %s" "workload" "metric" "unit"
      "parent median [q1, q3]" "change median [q1, q3]" "delta" "verdict"
    :: rows,
    !regressed )
