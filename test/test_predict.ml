(* Live-in value prediction: unit laws for the three predictor
   components and the tournament (stride locks onto affine streams in
   <= 3 observations; the finite-context table round-trips its history
   window; the tournament never picks a lower-confidence component; the
   master is the incumbent — refine cannot override a cell the master
   keeps predicting correctly), QCheck properties replayable under
   QCHECK_SEED, the differential suite (every workload kernel x every
   predictor mode must land bit-identical on the SEQ state — prediction
   only moves squash rates), and the mutation smoke test: a deliberately
   Broken predictor (stale values, inflated confidence) is absorbed, not
   a divergence — the detection signal is the squash-rate inflation the
   absorbability oracle reports. *)

module Full = Mssp_state.Full
module Fragment = Mssp_state.Fragment
module Live_in = Mssp_state.Live_in
module Cell = Mssp_state.Cell
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module B = Mssp_baseline.Baseline
module W = Mssp_workload.Workload
module Predict = Mssp_predict.Predict

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let cell = Cell.Mem 0x4242

let observe_all t c values = List.iter (Predict.observe t c) values

let component_prediction t c name =
  let rec find = function
    | [] -> None
    | (n, p, _) :: tl -> if String.equal n name then p else find tl
  in
  find (Predict.components t c)

(* --- component laws --------------------------------------------------- *)

let test_stride_locks_in_three () =
  let t = Predict.create Predict.Stride in
  observe_all t cell [ 10; 13; 16 ];
  Alcotest.(check (option int))
    "affine stream locked after 3 observations" (Some 19)
    (component_prediction t cell "stride");
  (* confidence follows: after enough confirmed hits the mode-level
     prediction clears the override threshold too *)
  observe_all t cell [ 19; 22; 25 ];
  Alcotest.(check (option int)) "confident prediction" (Some 28)
    (Predict.predict t cell);
  check "threshold cleared" true
    (Predict.confidence t cell "stride" >= Predict.conf_threshold)

let test_context_round_trips_window () =
  let t = Predict.create Predict.Context in
  let w = Predict.history_window in
  check_int "window is 4 (test data assumes it)" 4 w;
  (* learn [1;2;3;4] -> 9, then roll the history back to [1;2;3;4] *)
  observe_all t cell [ 1; 2; 3; 4; 9; 1; 2; 3 ];
  observe_all t cell [ 4 ];
  Alcotest.(check (option int))
    "the recorded follower of the current window" (Some 9)
    (component_prediction t cell "context")

let test_last_value () =
  let t = Predict.create Predict.Last_value in
  observe_all t cell [ 7 ];
  Alcotest.(check (option int)) "predicts the last observation" (Some 7)
    (component_prediction t cell "last-value");
  observe_all t cell [ 7; 7; 7; 7 ];
  Alcotest.(check (option int)) "confident after repeats" (Some 7)
    (Predict.predict t cell)

(* --- tournament laws -------------------------------------------------- *)

(* a constant stream trains every component to the same answer at the
   same confidence: whoever the seeded tie-break picks, the pick's
   confidence must be maximal among threshold-clearing components *)
let chosen_confidence_is_maximal t c =
  match Predict.chosen t c with
  | None -> true
  | Some name ->
    let conf = Predict.confidence t c name in
    List.for_all
      (fun (_, p, cf) ->
        match p with
        | None -> true
        | Some _ -> cf < Predict.conf_threshold || cf <= conf)
      (Predict.components t c)

let test_tournament_never_picks_lower_confidence () =
  let t = Predict.create Predict.Tournament in
  (* stride-friendly: stride should out-rank last-value *)
  observe_all t cell [ 10; 13; 16; 19; 22; 25; 28; 31 ];
  check "a pick exists" true (Predict.chosen t cell <> None);
  check "pick confidence maximal" true (chosen_confidence_is_maximal t cell);
  Alcotest.(check (option string)) "stride wins an affine stream"
    (Some "stride") (Predict.chosen t cell)

let prop_tournament_maximal =
  QCheck.Test.make ~name:"tournament never picks lower confidence" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 40) (int_range (-8) 8))
    (fun values ->
      let t = Predict.create Predict.Tournament in
      observe_all t cell values;
      chosen_confidence_is_maximal t cell)

let prop_deterministic =
  QCheck.Test.make
    ~name:"same seed + same observations => identical predictions"
    ~count:100
    QCheck.(pair small_nat (list_of_size (Gen.int_range 0 30) small_int))
    (fun (seed, values) ->
      let mk () =
        let t = Predict.create ~seed Predict.Tournament in
        observe_all t cell values;
        t
      in
      let a = mk () and b = mk () in
      Predict.predict a cell = Predict.predict b cell
      && Predict.chosen a cell = Predict.chosen b cell
      && Predict.components a cell = Predict.components b cell)

(* [Predict.refine] over a checkpoint live-in, seen as the fragment it
   binds *)
let refine t frag =
  Live_in.to_fragment (Predict.refine t (Live_in.of_fragment frag))

(* --- the master incumbent --------------------------------------------- *)

let test_master_incumbent () =
  let t = Predict.create Predict.Stride in
  (* train a saturated stride predictor on the cell *)
  observe_all t cell [ 10; 13; 16; 19; 22; 25; 28; 31; 34; 37 ];
  check "component saturated" true
    (Predict.confidence t cell "stride" >= Predict.conf_threshold);
  let frag = Fragment.add cell 0 Fragment.empty in
  (* the master starts fully trusted: even a saturated component is not
     STRICTLY more confident, so refine must leave the value alone *)
  check_int "untracked master is fully trusted" 7
    (Predict.master_confidence t cell);
  check "refine is identity while the master never missed" true
    (Fragment.equal (refine t frag) frag);
  (* two recorded master misses collapse the incumbent below the
     component and the takeover happens *)
  Predict.observe_master t cell ~supplied:0 ~actual:40;
  Predict.observe_master t cell ~supplied:0 ~actual:43;
  check "master confidence collapsed" true
    (Predict.master_confidence t cell < Predict.confidence t cell "stride");
  (match Fragment.find_opt cell (refine t frag) with
  | Some v -> check_int "stride takes the cell over" 40 v
  | None -> Alcotest.fail "cell lost by refine");
  (* pc is never touched, and the cell set is preserved *)
  let frag2 = Fragment.add Cell.Pc 0 frag in
  (match Fragment.find_opt Cell.Pc (refine t frag2) with
  | Some v -> check_int "pc untouched" 0 v
  | None -> Alcotest.fail "pc lost by refine");
  (* a recovering master re-earns trust *)
  for _ = 1 to 4 do
    Predict.observe_master t cell ~supplied:40 ~actual:40
  done;
  check "master re-earns the cell" true
    (Fragment.equal (refine t frag) frag)

(* The rebuild [refine] replaced, restated over the public API: fold
   every binding from the empty fragment, keeping [Pc] and every value
   the mode's pick does not beat the master on. [refine] now moves only
   the overridden cells of the incoming live-in (a copied register file,
   memory added onto its fragment), and must agree. *)
let rebuild mode t frag =
  let pick_conf c =
    match mode with
    | Predict.Broken -> max_int
    | Predict.Tournament -> (
      match Predict.chosen t c with
      | Some name -> Predict.confidence t c name
      | None -> 0)
    | Predict.Last_value -> Predict.confidence t c "last-value"
    | Predict.Stride -> Predict.confidence t c "stride"
    | Predict.Context -> Predict.confidence t c "context"
    | Predict.Off -> 0
  in
  Fragment.fold
    (fun c v acc ->
      match (c, Predict.predict t c) with
      | Cell.Pc, _ -> Fragment.add c v acc
      | _, Some p when p <> v && pick_conf c > Predict.master_confidence t c ->
        Fragment.add c p acc
      | _ -> Fragment.add c v acc)
    frag Fragment.empty

let prop_refine_is_rebuild =
  let modes =
    [| Predict.Last_value; Predict.Stride; Predict.Context; Predict.Tournament;
       Predict.Broken |]
  in
  QCheck.Test.make ~name:"refine = rebuild of the live-in" ~count:200
    QCheck.(
      pair (int_bound (Array.length modes - 1))
        (pair
           (list_of_size (Gen.int_range 0 60)
              (triple (int_bound 7) (int_range (-4) 4) bool))
           (list_of_size (Gen.int_range 0 24) (pair (int_bound 9) small_int))))
    (fun (m, (training, bindings)) ->
      let t = Predict.create modes.(m) in
      (* eight memory cells trained on short affine streams; a master
         miss on a cell collapses its incumbent confidence so overrides
         actually happen *)
      let mem i = Cell.Mem (0x4000 + i) in
      List.iter
        (fun (i, step, miss) ->
          let c = mem i in
          observe_all t c (List.init 4 (fun k -> (i * 100) + (k * step)));
          if miss then Predict.observe_master t c ~supplied:0 ~actual:1)
        training;
      let cell_of k =
        if k = 0 then Cell.Pc
        else if k = 1 then Cell.Reg Mssp_asm.Regs.t0
        else mem (k - 2)
      in
      let frag =
        List.fold_left
          (fun f (k, v) -> Fragment.add (cell_of k) v f)
          Fragment.empty bindings
      in
      Fragment.equal (refine t frag) (rebuild modes.(m) t frag))

let test_off_never_predicts () =
  let t = Predict.create Predict.Off in
  observe_all t cell [ 5; 5; 5; 5; 5; 5 ];
  Alcotest.(check (option int)) "off never predicts" None
    (Predict.predict t cell);
  let frag = Fragment.add cell 1 Fragment.empty in
  check "off refine is identity" true
    (Fragment.equal (refine t frag) frag)

(* --- warm-up from the profiler's streams ------------------------------ *)

let test_warmup_of_profile () =
  let b = W.find "vecsum" in
  let profile = Profile.collect (b.W.program ~size:50) in
  let warm = Predict.warmup_of_profile profile in
  check "non-empty" true (warm <> []);
  let addrs = List.map fst warm in
  check "ascending addresses" true (List.sort Int.compare addrs = addrs);
  List.iter
    (fun (addr, values) ->
      Alcotest.(check (list int))
        (Printf.sprintf "stream %#x is the profiler's" addr)
        (Profile.cell_observations profile addr)
        values)
    warm

(* --- machine-level suites ---------------------------------------------

   Small inputs: the differential grid below is 13 kernels x 5 modes of
   full MSSP runs and must stay cheap under dune runtest. *)

let prepared name size =
  let b = W.find name in
  let program = b.W.program ~size in
  let profile = Profile.collect (b.W.program ~size) in
  let d = Distill.distill program profile in
  let baseline = B.sequential ~also_load:[ d.Distill.distilled ] program in
  (d, profile, baseline)

let run_mode ?(slaves = 4) (d, profile, _) mode =
  let config =
    {
      (Config.with_slaves slaves Config.default) with
      Config.predict = mode;
      predict_warmup =
        (if mode = Predict.Off then [] else Predict.warmup_of_profile profile);
    }
  in
  M.run ~config d

let test_differential_suite () =
  List.iter
    (fun (b : W.benchmark) ->
      let ((_, _, baseline) as prep) = prepared b.W.name b.W.train_size in
      List.iter
        (fun mode ->
          let label = b.W.name ^ "/" ^ Predict.mode_to_string mode in
          let r = run_mode prep mode in
          check (label ^ " halted") true (r.M.stop = M.Halted);
          check (label ^ " state equals SEQ") true
            (Full.equal_observable baseline.B.state r.M.arch);
          if mode = Predict.Off then
            check_int (label ^ " records no outcomes") 0
              (r.M.stats.M.predict_hits + r.M.stats.M.predict_misses))
        Predict.modes)
    W.all

let test_broken_predictor_absorbed () =
  (* the mutation smoke test: Broken returns each cell's FIRST observed
     value forever with unconditional confidence, so it overrides
     healthy master values with stale ones. The machine must absorb
     every one of those wrong checkpoints — the final state stays SEQ
     (the absorbability oracle finds no divergence) and the damage shows
     up exclusively as squash-rate inflation, which is what the fuzz
     oracle and the adaptation loop key on. *)
  let ((_, _, baseline) as prep) = prepared "vecsum" 400 in
  let off = run_mode prep Predict.Off in
  let broken = run_mode prep Predict.Broken in
  check "broken run halted" true (broken.M.stop = M.Halted);
  check "broken run absorbed (state equals SEQ)" true
    (Full.equal_observable baseline.B.state broken.M.arch);
  check "stale overrides actually fired" true
    (broken.M.stats.M.predict_misses > 0);
  check "detection signal: squash rate inflated" true
    (broken.M.stats.M.squashes > off.M.stats.M.squashes)

let () =
  Alcotest.run "predict"
    [
      ( "components",
        [
          Alcotest.test_case "stride locks in 3" `Quick
            test_stride_locks_in_three;
          Alcotest.test_case "context round-trips window" `Quick
            test_context_round_trips_window;
          Alcotest.test_case "last-value" `Quick test_last_value;
          Alcotest.test_case "off never predicts" `Quick test_off_never_predicts;
          Alcotest.test_case "warmup = profiler streams" `Quick
            test_warmup_of_profile;
        ] );
      ( "tournament",
        [
          Alcotest.test_case "never picks lower confidence" `Quick
            test_tournament_never_picks_lower_confidence;
          Alcotest.test_case "master incumbent" `Quick test_master_incumbent;
          Mssp_testkit.to_alcotest prop_tournament_maximal;
          Mssp_testkit.to_alcotest prop_deterministic;
          Mssp_testkit.to_alcotest prop_refine_is_rebuild;
        ] );
      ( "machine",
        [
          Alcotest.test_case "differential: kernels x modes == SEQ" `Slow
            test_differential_suite;
          Alcotest.test_case "broken predictor absorbed" `Quick
            test_broken_predictor_absorbed;
        ] );
    ]
