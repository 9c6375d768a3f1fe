(* The Table 6.1 benchmark suite, packaged uniformly: program, nest
   location, workloads, and a host-reference output for verification. *)

open Uas_ir
module Ctx = Uas_runtime.Ctx
module Fault = Uas_runtime.Fault
module Instrument = Uas_runtime.Instrument

type benchmark = {
  b_name : string;              (** Table 6.1 name, e.g. "Skipjack-mem" *)
  b_description : string;       (** Table 6.1 description *)
  b_program : Stmt.program;
  b_outer_index : string;       (** outer loop of the kernel nest *)
  b_inner_index : string;       (** inner (hardware kernel) loop *)
  b_workload : Interp.workload; (** reference workload *)
  b_reference : (Types.array_id * Types.value array) list;
      (** expected contents of the output arrays on [b_workload],
          computed by the host implementations *)
}

let vint = Array.map (fun x -> Types.VInt x)
let vflt = Array.map (fun x -> Types.VFloat x)

(* sizes kept small enough that every version interprets quickly but
   large enough that all unroll factors up to 16 divide or peel *)
let default_blocks = 48
let default_channels = 16

let skipjack_mem ?(m = default_blocks) () : benchmark =
  let key = Skipjack.random_key ~seed:101 in
  let words = Skipjack.random_words ~seed:102 (4 * m) in
  { b_name = "Skipjack-mem";
    b_description =
      "Skipjack encryption, software implementation with memory references";
    b_program = Skipjack.skipjack_mem ~m;
    b_outer_index = "i";
    b_inner_index = "j";
    b_workload = Skipjack.workload_mem ~key words;
    b_reference = [ ("data_out", vint (Skipjack.encrypt_stream ~key words)) ] }

let skipjack_hw ?(m = default_blocks) () : benchmark =
  let key = Skipjack.random_key ~seed:103 in
  let words = Skipjack.random_words ~seed:104 (4 * m) in
  { b_name = "Skipjack-hw";
    b_description =
      "Skipjack encryption, optimized for hardware: F-table and key \
       schedule in local ROM, no memory references in the round loop";
    b_program = Skipjack.skipjack_hw ~m ~key;
    b_outer_index = "i";
    b_inner_index = "j";
    b_workload = Skipjack.workload_hw words;
    b_reference = [ ("data_out", vint (Skipjack.encrypt_stream ~key words)) ] }

let des_mem ?(m = default_blocks) () : benchmark =
  let key64 = 0x0123456789ABCDEFL in
  let halves = Des.random_halves ~seed:105 (2 * m) in
  let subkeys = Des.key_schedule key64 in
  { b_name = "DES-mem";
    b_description = "DES encryption, SBOX implemented in software with \
                     memory references";
    b_program = Des.des_mem ~m;
    b_outer_index = "i";
    b_inner_index = "j";
    b_workload = Des.workload_mem ~key64 halves;
    b_reference = [ ("data_out", vint (Des.encrypt_stream ~subkeys halves)) ] }

let des_hw ?(m = default_blocks) () : benchmark =
  let key64 = 0x0123456789ABCDEFL in
  let halves = Des.random_halves ~seed:106 (2 * m) in
  let subkeys = Des.key_schedule key64 in
  { b_name = "DES-hw";
    b_description =
      "DES encryption, SBOX implemented in hardware without memory \
       references";
    b_program = Des.des_hw ~m ~key64;
    b_outer_index = "i";
    b_inner_index = "j";
    b_workload = Des.workload_hw halves;
    b_reference = [ ("data_out", vint (Des.encrypt_stream ~subkeys halves)) ] }

let iir ?(channels = default_channels) () : benchmark =
  let signal =
    Iir.random_signal ~seed:107 (channels * Iir.points_per_channel)
  in
  { b_name = "IIR";
    b_description = "4-cascaded IIR biquad filter processing 64 points";
    b_program = Iir.iir ~channels;
    b_outer_index = "i";
    b_inner_index = "j";
    b_workload = Iir.workload signal;
    b_reference = [ ("signal_out", vflt (Iir.filter_bank ~channels signal)) ] }

let wavelet3 () : benchmark =
  let img = Wavelet3.random_image ~seed:211 in
  let coeff = Wavelet3.random_coeffs ~seed:211 in
  { b_name = "Wavelet3";
    b_description =
      "3-deep integer lifting-wavelet cascade (4 bands x 8 rows x 8 taps)";
    b_program = Wavelet3.wavelet3 ();
    b_outer_index = "b";
    b_inner_index = "c";
    b_workload = Wavelet3.workload img coeff;
    b_reference = [ ("row_out", vint (Wavelet3.transform img coeff)) ] }

(** The five benchmarks of Table 6.1/6.2, in the paper's order. *)
let all () : benchmark list =
  [ skipjack_mem (); skipjack_hw (); des_mem (); des_hw (); iir () ]

(** Benchmarks beyond the Table 6.1 suite: the 3-deep wavelet nest
    that exercises the flatten-then-squash route.  Kept out of
    {!all} so the Table 6.2 reproduction stays byte-identical. *)
let extras () : benchmark list = [ wavelet3 () ]

(** Look a benchmark up by name (case-insensitive), over the Table 6.1
    suite and the extras. *)
let find name : benchmark option =
  List.find_opt
    (fun b -> String.lowercase_ascii b.b_name = String.lowercase_ascii name)
    (all () @ extras ())

(* The [interp.run] fault-injection site (label: tier name).  The
   [stall] kind exhausts the fuel budget instead of spinning — the run
   surfaces as [Out_of_fuel], exactly what a runaway interpretation
   looks like to callers; [corrupt] perturbs the first output value of
   an otherwise-normal run. *)
let stall_fuel = 64

let corrupt_result (r : Interp.result) : Interp.result =
  match r.Interp.outputs with
  | [] -> r
  | (name, vs) :: rest ->
    let vs = Array.copy vs in
    if Array.length vs > 0 then
      vs.(0) <-
        (match vs.(0) with
        | Types.VInt x -> Types.VInt (x + 1)
        | Types.VFloat x -> Types.VFloat (x +. 1.0));
    { r with Interp.outputs = (name, vs) :: rest }

(** Run [p] on [w] on the chosen interpreter tier, under an
    instrumentation span naming the tier. *)
let run_tier (ctx : Ctx.t) ?fuel (tier : Fast_interp.tier)
    (code : Fast_interp.code) (w : Interp.workload) : Interp.result =
  let name = Fast_interp.tier_name tier in
  Instrument.span ctx.trace ("interp.run." ^ name) (fun () ->
      match Fault.hit ctx.faults ~scope:ctx.scope ~label:name "interp.run" with
      | None -> Fast_interp.run_tier ?fuel tier code w
      | Some Fault.Raise ->
        raise (Fault.Injected { site = "interp.run"; kind = Fault.Raise })
      | Some Fault.Stall -> Fast_interp.run_tier ~fuel:stall_fuel tier code w
      | Some Fault.Corrupt ->
        corrupt_result (Fast_interp.run_tier ?fuel tier code w))

(** Does an interpreter result reproduce the benchmark's host
    reference outputs exactly? *)
let check_result (b : benchmark) (r : Interp.result) : (unit, string) result =
  let check (name, expected) =
    match List.assoc_opt name r.Interp.outputs with
    | None ->
      let available =
        match r.Interp.outputs with
        | [] -> "none"
        | outs -> String.concat ", " (List.map fst outs)
      in
      Some
        (Printf.sprintf
           "benchmark %s: expected output array %s is missing from the \
            interpreted result (available outputs: %s)"
           b.b_name name available)
    | Some got ->
      if Array.length got <> Array.length expected then
        Some (Printf.sprintf "%s: length mismatch" name)
      else
        let rec go k =
          if k >= Array.length got then None
          else if not (Types.equal_value got.(k) expected.(k)) then
            Some
              (Fmt.str "%s[%d]: got %a, expected %a" name k Types.pp_value
                 got.(k) Types.pp_value expected.(k))
          else go (k + 1)
        in
        go 0
  in
  match List.find_map check b.b_reference with
  | None -> Ok ()
  | Some msg -> Error msg

(** Does running [p] on the benchmark's workload reproduce the host
    reference outputs exactly?  [tier] picks the interpreter (default:
    the process-wide {!Fast_interp.default_tier}). *)
let check_against_reference ?tier (b : benchmark) (p : Stmt.program) :
    (unit, string) result =
  let tier =
    match tier with Some t -> t | None -> Fast_interp.default_tier ()
  in
  check_result b
    (run_tier (Ctx.default ()) tier (Fast_interp.Source p) b.b_workload)
