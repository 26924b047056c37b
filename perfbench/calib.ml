(* Host-speed calibration of the end-to-end timings.

   On a shared host the speed one core gives this process moves by 20–40%
   within a run and between runs, with the load other tenants put on the
   same physical cores and caches. The raw times of identical runs then
   spread more than any bound allowed on them. So a fixed kernel in the
   benchmark's own code runs just before every timed operation, and each
   operation's time is scaled by [ref_ms] / (the median kernel time
   around it). A scaled time reads as the time on a host where the kernel
   takes [ref_ms].

   The kernel does the kind of work the guests' engines and the timing
   models do: closure dispatch over a small program, with boxed [Int64]
   register values that live only until the next minor collection. It
   promotes at most one register file per minor collection, so the
   program's heap adds almost no major-GC work to it, and nothing the
   program does changes its time except the host. A change to the program
   therefore moves the scaled times as much as the raw ones. The unscaled
   numbers are printed on standard error beside the scaled ones. *)

(* The kernel's median time on the host the benchmark was written on
   (Intel Xeon at 2.1 GHz, one vCPU of a shared 2-core VM). It sets the
   scale of the reported numbers only. *)
let ref_ms = 3.0

let regs = Array.make 16 0L

(* 64 straight-line operations over [regs]; each returns the next pc. *)
let code =
  let rng = Random.State.make [| 7 |] in
  Array.init 64 (fun pc ->
      let a = Random.State.int rng 16 and b = Random.State.int rng 16 in
      let d = Random.State.int rng 16 in
      match Random.State.int rng 5 with
      | 0 -> fun () -> regs.(d) <- Int64.add regs.(a) regs.(b); pc + 1
      | 1 -> fun () -> regs.(d) <- Int64.logxor regs.(a) (Int64.shift_left regs.(b) 3); pc + 1
      | 2 -> fun () -> regs.(d) <- Int64.mul regs.(a) 0x9E3779B97F4A7C15L; pc + 1
      | 3 -> fun () -> if Int64.logand regs.(a) 1L = 0L then pc + 2 else pc + 1
      | _ -> fun () -> regs.(d) <- Int64.sub regs.(b) (Int64.of_int pc); pc + 1)

let kernel () =
  for i = 0 to 15 do
    regs.(i) <- Int64.of_int ((i * 31) + 1)
  done;
  let pc = ref 0 in
  for _ = 1 to 300_000 do
    pc := code.(!pc land 63) ()
  done

(* One kernel run, in milliseconds. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  (Unix.gettimeofday () -. t0) *. 1000.0

(* Kernel samples of the current phase, newest first. [tick] records one
   when [on] is set: the untraced end-to-end runs set it, the traced run
   does not, so its spans and overhead stay as measured. *)
let on = ref false
let samples : float list ref = ref []

(* Minor words the kernel allocated, for the allocation counts to leave
   out. *)
let words = ref 0.0

let tick () =
  if !on then begin
    let w0 = Gc.minor_words () in
    samples := sample () :: !samples;
    words := !words +. (Gc.minor_words () -. w0)
  end

let reset () = samples := []

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The factor for each of [n] timed operations that were each preceded
   by [batch] ticks, with [batch] more after the last one: [ref_ms]
   over the median of the samples from [window] operations before to
   [window] after, the ones taken just before and just after it included. *)
let factors ~batch ~window n =
  let s = Array.of_list (List.rev !samples) in
  if Array.length s <> (n + 1) * batch then
    invalid_arg (Printf.sprintf "Calib.factors: %d samples for %d operations" (Array.length s) n);
  Array.init n (fun i ->
      let lo = max 0 (i - window) * batch and hi = min n (i + 1 + window) * batch in
      ref_ms /. median (Array.to_list (Array.sub s lo (hi - lo + batch))))

(* The median of all samples of the phase, for the record. *)
let median_ms () = median !samples
