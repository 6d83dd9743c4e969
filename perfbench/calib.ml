(* Host-speed calibration.

   The benchmark runs on a share of a host whose speed drifts: with the
   program unchanged, the same single-threaded run has measured 2x
   apart over minutes, in CPU time as well as in wall time.  The timed
   figures are therefore taken on two clocks that leave the host out:

   - the process CPU clock, which skips the time the process waits for
     a CPU, including time the hypervisor gives to other guests;
   - a reference kernel, a fixed computation of the benchmark's own
     (not the program's), sampled from a profiling timer all through
     the run.  Its median CPU time over the run says how fast the host
     is running now; [factor] rescales the program's CPU seconds to
     seconds on a host where the kernel takes [reference_s].

   A change to the program moves its CPU time and not the kernel's, so
   it shows in the rescaled figures in full. *)

let cpu () = Sys.time ()

(* The kernel does the kinds of work the pipeline spends its time on:
   NTT butterflies with modular multiplication over an int array,
   ChaCha-style add-rotate-xor rounds, and copying through a buffer
   larger than the first-level caches.  It allocates nothing: a kernel
   that allocated would run collections and pay for garbage the program
   left, and a change to the program's allocation would then move the
   calibration. *)

let p = 2013265921 (* 15 * 2^27 + 1: products of two residues fit in 63 bits *)
let ntt_n = 1024
let ntt = Array.make ntt_n 0
let state = Array.make 16 0
let copy_bytes = 1 lsl 17
let src = Bytes.init copy_bytes (fun i -> Char.unsafe_chr (i land 0xFF))
let dst = Bytes.create copy_bytes

let butterflies a w =
  let len = ref (ntt_n / 2) in
  while !len >= 1 do
    let l = !len in
    let i = ref 0 in
    while !i < ntt_n do
      for j = !i to !i + l - 1 do
        let u = a.(j) and v = a.(j + l) * w mod p in
        a.(j) <- (u + v) mod p;
        a.(j + l) <- (u - v + p) mod p
      done;
      i := !i + (2 * l)
    done;
    len := l / 2
  done

let rotl x r = ((x lsl r) lor (x lsr (32 - r))) land 0xFFFF_FFFF

let quarter s a b c d =
  s.(a) <- (s.(a) + s.(b)) land 0xFFFF_FFFF;
  s.(d) <- rotl (s.(d) lxor s.(a)) 16;
  s.(c) <- (s.(c) + s.(d)) land 0xFFFF_FFFF;
  s.(b) <- rotl (s.(b) lxor s.(c)) 12;
  s.(a) <- (s.(a) + s.(b)) land 0xFFFF_FFFF;
  s.(d) <- rotl (s.(d) lxor s.(a)) 8;
  s.(c) <- (s.(c) + s.(d)) land 0xFFFF_FFFF;
  s.(b) <- rotl (s.(b) lxor s.(c)) 7

let chacha_block s =
  for _ = 1 to 10 do
    quarter s 0 4 8 12;
    quarter s 1 5 9 13;
    quarter s 2 6 10 14;
    quarter s 3 7 11 15;
    quarter s 0 5 10 15;
    quarter s 1 6 11 12;
    quarter s 2 7 8 13;
    quarter s 3 4 9 14
  done

let kernel () =
  for i = 0 to ntt_n - 1 do
    ntt.(i) <- (i * 7919) + 1
  done;
  for r = 1 to 30 do
    butterflies ntt (r + 3)
  done;
  for i = 0 to 15 do
    state.(i) <- ntt.(i) land 0xFFFF_FFFF
  done;
  for _ = 1 to 320 do
    chacha_block state
  done;
  for k = 1 to 100 do
    Bytes.blit src 0 dst 0 copy_bytes;
    Bytes.unsafe_set src (k land 0xFFFF) (Bytes.unsafe_get dst (state.(k land 15) land 0xFFFF))
  done;
  ntt.(0) + state.(0) + Char.code (Bytes.get dst 0)

(* The kernel's CPU seconds on the host where the baseline in
   perfbench/README.md was measured, in the state it was in then: the
   unit of the rescaled figures. *)
let reference_s = 2.7e-3

(* CPU seconds between kernel samples during a timed run. *)
let every_s = 0.2

type t = {
  mutable samples : float list;  (** CPU seconds of each timed kernel run *)
  mutable spent : float;  (** CPU seconds spent sampling, clock reads included *)
}

(* One sample: the kernel runs twice and the second run is timed, so
   that what the program left in the caches does not weigh on it. *)
let sample t =
  let c0 = cpu () in
  ignore (Sys.opaque_identity (kernel ()));
  let c1 = cpu () in
  ignore (Sys.opaque_identity (kernel ()));
  let c2 = cpu () in
  t.samples <- (c2 -. c1) :: t.samples;
  t.spent <- t.spent +. (cpu () -. c0)

(* CPU seconds of the program's own work: the CPU clock less the
   sampling.  A sample may land between the two reads; then read
   again. *)
let rec work t =
  let s = t.spent in
  let c = cpu () in
  if Float.equal s t.spent then c -. s else work t

(* A calibration with five samples taken at once. *)
let create () =
  let t = { samples = []; spent = 0. } in
  for _ = 1 to 5 do
    sample t
  done;
  t

let set_timer s = ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = s; it_value = s })

(* [f ()] with a sample taken every [every_s] of process CPU time, from
   a profiling-timer signal.  The handler runs at the program's next
   safe point, in the middle of whatever it is doing, so a serve batch
   that runs for seconds is sampled all through, like a stretch of
   short requests.  The kernel allocates nothing and a sample records
   a few words, so sampling leaves the program's heap as it was. *)
let sampling t f =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> sample t));
  set_timer every_s;
  Fun.protect
    ~finally:(fun () ->
      set_timer 0.;
      Sys.set_signal Sys.sigprof Sys.Signal_ignore)
    f

let median_s t = Mycelium_util.Stats.median (Array.of_list t.samples)

(* Reference seconds per CPU second of the program's work. *)
let factor t = reference_s /. median_s t
