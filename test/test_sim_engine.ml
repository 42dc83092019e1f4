(* Tests for the discrete-event kernel and its event queue. *)

open Mssp_sim_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- the queue: a heap on (time, insertion sequence) --- *)

(* schedule one event per delay, each logging [(now, i)] for its index
   [i], and drain *)
let pops delays =
  let sim = Sim.create () in
  let log = ref [] in
  List.iteri
    (fun i d -> Sim.schedule sim ~delay:d (fun () -> log := (Sim.now sim, i) :: !log))
    delays;
  check "drained" true (Sim.run sim = Sim.Drained);
  List.rev !log

let test_queue_order () =
  check "sorted times" true
    (List.map fst (pops [ 5; 1; 4; 1; 3 ]) = [ 1; 1; 3; 4; 5 ])

let test_queue_fifo_among_equal () =
  check "FIFO among equal times" true
    (List.map snd (pops [ 7; 7; 7 ]) = [ 0; 1; 2 ])

(* the pop order is the stable sort of the schedule order by time:
   nondecreasing, and FIFO among equal times *)
let prop_queue_sorts =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list small_nat)
    (fun delays ->
      let expected =
        List.stable_sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (List.mapi (fun i d -> (d, i)) delays)
      in
      pops delays = expected)

(* --- sim --- *)

let test_sim_time_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:10 (fun () -> log := (10, Sim.now sim) :: !log);
  Sim.schedule sim ~delay:5 (fun () -> log := (5, Sim.now sim) :: !log);
  Sim.schedule sim ~delay:5 (fun () ->
      (* nested scheduling: relative to now = 5 *)
      Sim.schedule sim ~delay:2 (fun () -> log := (7, Sim.now sim) :: !log));
  check "drained" true (Sim.run sim = Sim.Drained);
  let events = List.rev !log in
  check "order and clocks" true (events = [ (5, 5); (7, 7); (10, 10) ]);
  check_int "final time" 10 (Sim.now sim)

let test_sim_limit () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule sim ~delay:5 (fun () -> incr fired);
  Sim.schedule sim ~delay:50 (fun () -> incr fired);
  check "hit limit" true (Sim.run ~limit:10 sim = Sim.Hit_limit);
  check_int "only early event" 1 !fired;
  check "resume drains" true (Sim.run sim = Sim.Drained);
  check_int "both fired" 2 !fired

let test_sim_negative_delay () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Sim.schedule: negative delay")
    (fun () -> Sim.schedule sim ~delay:(-1) (fun () -> ()))

let test_sim_epoch_cancellation () =
  let sim = Sim.create () in
  let fired = ref [] in
  let note name () = fired := name :: !fired in
  Sim.schedule_guarded sim ~delay:1 (note "early");
  Sim.schedule_guarded sim ~delay:3 (note "stale");
  Sim.schedule sim ~delay:3 (note "sticky");
  Sim.schedule sim ~delay:2 (fun () -> Sim.bump_epoch sim);
  (* rescheduled after the bump: new epoch, survives *)
  Sim.schedule sim ~delay:2 (fun () ->
      Sim.schedule_guarded sim ~delay:5 (note "fresh"));
  check "drained" true (Sim.run sim = Sim.Drained);
  check "early fired, stale dropped, sticky and fresh fired" true
    (List.rev !fired = [ "early"; "sticky"; "fresh" ]);
  check_int "every event scheduled" 6 (Sim.scheduled sim);
  check_int "the stale pop counted as executed" 6 (Sim.executed sim);
  check_int "one bump" 1 (Sim.epoch sim)

(* [admit] sees every pop, stale ones included, before the epoch check;
   an unadmitted event is dropped but counted *)
let test_sim_admit () =
  let sim = Sim.create () in
  let admitted = ref 0 and fired = ref 0 in
  let admit () =
    incr admitted;
    Sim.now sim < 10
  in
  Sim.schedule_guarded sim ~delay:1 (fun () -> incr fired);
  Sim.schedule sim ~delay:2 (fun () -> Sim.bump_epoch sim);
  Sim.schedule_guarded sim ~delay:3 (fun () -> incr fired);
  Sim.schedule sim ~delay:20 (fun () -> incr fired);
  check "drained" true (Sim.run ~admit sim = Sim.Drained);
  check_int "admit saw all four pops" 4 !admitted;
  check_int "stale and unadmitted events did not fire" 1 !fired;
  check_int "all four executed" 4 (Sim.executed sim)

(* Scheduling and popping allocate nothing beyond the thunk: with one
   preallocated thunk, a batch of events costs no minor words once the
   queue's arrays have grown *)
let test_sim_allocation () =
  let sim = Sim.create () in
  let count = ref 0 in
  let thunk () = incr count in
  let batch n =
    for i = 1 to n do
      if i land 1 = 0 then Sim.schedule sim ~delay:(i mod 7) thunk
      else Sim.schedule_guarded sim ~delay:(i mod 5) thunk
    done;
    ignore (Sim.run sim : Sim.outcome)
  in
  batch 10_000;
  let w0 = Gc.minor_words () in
  batch 10_000;
  let per = (Gc.minor_words () -. w0) /. 10_000. in
  check_int "every event ran" 20_000 !count;
  check
    (Printf.sprintf "%.4f minor words per event beyond the thunk (< 0.01)" per)
    true (per < 0.01)

let test_sim_determinism () =
  let run () =
    let sim = Sim.create () in
    let log = ref [] in
    for i = 0 to 9 do
      Sim.schedule sim ~delay:(i mod 3) (fun () -> log := i :: !log)
    done;
    ignore (Sim.run sim : Sim.outcome);
    List.rev !log
  in
  check "two runs identical" true (run () = run ())

let () =
  Alcotest.run "sim_engine"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_queue_order;
          Alcotest.test_case "FIFO ties" `Quick test_queue_fifo_among_equal;
          Mssp_testkit.to_alcotest prop_queue_sorts;
        ] );
      ( "sim",
        [
          Alcotest.test_case "time ordering" `Quick test_sim_time_ordering;
          Alcotest.test_case "limit" `Quick test_sim_limit;
          Alcotest.test_case "negative delay" `Quick test_sim_negative_delay;
          Alcotest.test_case "epoch cancellation" `Quick test_sim_epoch_cancellation;
          Alcotest.test_case "admit hook" `Quick test_sim_admit;
          Alcotest.test_case "allocation" `Quick test_sim_allocation;
          Alcotest.test_case "determinism" `Quick test_sim_determinism;
        ] );
    ]
