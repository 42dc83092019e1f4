(** Host-speed calibration. On a shared host the CPU a run gets speeds
    up and slows down by a third or more, so raw CPU times of the same
    code differ from run to run by more than any useful bound. A fixed
    slice of work measures the host's speed at the moment it runs. One
    slice runs before every timed operation, and more run inside it: a
    CPU-time timer interrupts the operation every [period] seconds to
    run one. A pass's or an operation's time, without its slices,
    divided by the mean slice of its pass moves much less with the host. The slice is the
    benchmark's own code, so a change to the simulator never moves it.

    The host switches between a fast and a slow state (the slice takes
    about 2.6 or 4.2 ms on a 2-core shared host) many times a minute, on
    either core, so a run's speed is the share of time it spent in each.
    Slices sampled through an operation estimate that share; slices only
    between operations do not, when an operation takes seconds. In
    alternations of a [qsort] machine run at 8 slaves with a slice, the
    raw run time spread by 0.20–0.33 of its median (quartile distance)
    and the calibrated time by 0.08–0.18. A loop of plain arithmetic over
    a 32 KB array did not follow the host at all (correlation -0.07,
    against 0.78 for a hash-table slice in the same set), so the slice
    looks up and updates boxed cells in a hash table, the kind of work
    the simulator does. *)

type cell = { mutable v : int; next : int }

let keys = 8192

(* built once; a slice looks its cells up and updates them in place *)
let table : (int, cell) Hashtbl.t =
  let h = Hashtbl.create (2 * keys) in
  for k = 0 to keys - 1 do
    Hashtbl.replace h k { v = k; next = k * 7919 land (keys - 1) }
  done;
  h

(* allocates nothing, so it can run anywhere, even in the middle of an
   operation, without moving the program's allocation or collections *)
let work n =
  let acc = ref 0 and k = ref 0 in
  for i = 0 to n - 1 do
    let c = Hashtbl.find table !k in
    c.v <- c.v + i;
    acc := !acc + c.v;
    k := (c.next + i) land (keys - 1)
  done;
  !acc

let iterations = 40_000

(** The slice's CPU time on the reference host. Calibrated times are
    given in seconds of that host: an operation that took as long as
    [k] slices reads [k * reference_s]. *)
let reference_s = 0.003

(** The process's CPU seconds, user and system. [Sys.time] returns an
    unboxed float, so reading it allocates nothing. *)
let cpu = Sys.time

(* Slice times since [around] began, in a buffer, so that recording one
   allocates nothing either. *)
let buf = Array.make 100_000 0.0
let count = ref 0

let sample () =
  let t0 = cpu () in
  ignore (Sys.opaque_identity (work iterations) : int);
  let dt = cpu () -. t0 in
  if !count < Array.length buf then begin
    buf.(!count) <- dt;
    incr count
  end

(** CPU seconds of the operation between two slices. *)
let period = 0.1

(* whether the timer runs slices inside operations; off in the traced
   run, whose layer spans must hold only the layers' own time *)
let inside = ref true

let () = Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle (fun _ -> sample ()))

let arm on =
  let t = if on then period else 0.0 in
  ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = t; it_value = t }
          : Unix.interval_timer_status)

(** How one operation was timed: its CPU seconds without slices, the
    slices run before and inside it, and the CPU seconds of those. *)
type timing = { op_s : float; slices : float list; calib_s : float }

(** Run one slice, then [f] with the timer armed. *)
let around f =
  count := 0;
  let t0 = cpu () in
  sample ();
  let t1 = cpu () in
  if !inside then arm true;
  let r = Fun.protect ~finally:(fun () -> if !inside then arm false) f in
  let t2 = cpu () in
  let slices = List.init !count (fun i -> buf.(i)) in
  let within = List.fold_left ( +. ) 0.0 (List.tl slices) in
  (r, { op_s = t2 -. t1 -. within; slices; calib_s = t1 -. t0 +. within })

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** A time [t] in reference seconds, scaled by the mean of [slices].
    The host's two speeds make the slices' distribution two-peaked, so a
    median would jump between the peaks; the mean weighs them by the time
    spent in each. *)
let scale slices t = t *. reference_s /. mean slices
