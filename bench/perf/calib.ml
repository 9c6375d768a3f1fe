(* Machine-speed calibration.

   The CPUs this benchmark shares run at a speed that drifts by up to 2x
   over minutes (a fixed arithmetic loop read 0.13 s in one minute and
   0.25 s in the next, with CPU time equal to wall time, so the process
   was running, just slower).  Wall times taken minutes apart are then
   not comparable, and neither are two sets of runs.

   So each run times a fixed kernel next to the passes it measures and
   scales its times by [nominal_ms /. median kernel time].  The kernel
   mixes what the compiler does — arithmetic, pointer chasing over a
   heap larger than the caches, and allocation of maps, hash tables and
   strings — but runs none of the compiler's code, so no change under
   test can move it.  It runs on both domains at once, in a child
   process, so its heap does not depend on the measured run's.  Of the
   kernels tried, this mix tracked pass times best; see README.md. *)

(* The kernel's usual time on the machine the bounds were set on, so
   calibrated times read close to raw ones there. *)
let nominal_ms = 55.0

(* a random cyclic permutation over 1M ints: each hop a cache miss *)
let make_ring () =
  let n = 1 lsl 20 in
  let st = Random.State.make [| 11 |] in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let next = Array.make n 0 in
  for i = 0 to n - 1 do
    next.(order.(i)) <- order.((i + 1) mod n)
  done;
  next

module IM = Map.Make (Int)

let kernel ring =
  let t0 = Unix.gettimeofday () in
  (* arithmetic: xorshift steps over a small table *)
  let table = Array.make 4096 0 in
  let x = ref 88172645463325252 in
  for i = 1 to 2_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land 4095 in
    Array.unsafe_set table j (Array.unsafe_get table j + i)
  done;
  (* pointer chasing *)
  let p = ref 0 in
  for _ = 1 to 200_000 do
    p := Array.unsafe_get ring !p
  done;
  (* allocation *)
  let st = Random.State.make [| 7 |] in
  let m = ref IM.empty in
  for _ = 1 to 15_000 do
    m := IM.add (Random.State.int st 1_000_000) (string_of_int (Random.State.bits st)) !m
  done;
  let h = Hashtbl.create 64 in
  IM.iter (fun k v -> Hashtbl.replace h (k land 8191) (v ^ "x")) !m;
  let l = IM.fold (fun k v acc -> (String.length v, k) :: acc) !m [] in
  ignore (Sys.opaque_identity (!p + List.length (List.sort compare l) + Hashtbl.length h));
  1000.0 *. (Unix.gettimeofday () -. t0)

(* [perf.exe calibrate]: three rounds of the kernel on two domains at
   once; prints the median of the per-round means, in milliseconds. *)
let child_main () =
  let ring = make_ring () in
  let round () =
    let d = Domain.spawn (fun () -> kernel ring) in
    let mine = kernel ring in
    (mine +. Domain.join d) /. 2.0
  in
  Printf.printf "%.6f\n" (Perf_lib.Stats.median (List.init 3 (fun _ -> round ())))

let measure () =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "calibrate" |] Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  match Option.bind line float_of_string_opt with
  | Some ms -> ms
  | None -> failwith "calibration child printed no time"

type t = { mutable at : float; mutable samples : float list }

let create () = { at = neg_infinity; samples = [] }

(* Measure when the last measurement is older than [every] seconds. *)
let refresh ?(every = 5.0) t =
  if Unix.gettimeofday () -. t.at >= every then begin
    t.samples <- measure () :: t.samples;
    t.at <- Unix.gettimeofday ()
  end

(* The factor that turns the run's raw times into calibrated ones: one
   factor per run, from the median of its measurements, so a single
   disturbed measurement cannot move a metric. *)
let factor t =
  match t.samples with [] -> 1.0 | s -> nominal_ms /. Perf_lib.Stats.median s
