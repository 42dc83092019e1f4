(* Tests for speculative tasks: read resolution order, live-in recording,
   boundary/occurrence completion, budgets, failures, I/O refusal, and
   the live-in lookup contract (memory live-ins read from the fragment
   by reference behave exactly like a flattened copy). *)

module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Live_in = Mssp_state.Live_in
module Full = Mssp_state.Full
module Layout = Mssp_isa.Layout
module Instr = Mssp_isa.Instr
module Task = Mssp_task.Task
module Journal = Mssp_task.Journal
module Dsl = Mssp_asm.Dsl
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let build f =
  let b = Dsl.create () in
  f b;
  Dsl.build b ()

(* load a program into a full state to serve as architected state *)
let arch_of p =
  let s = Full.create () in
  Full.load s p;
  s

let simple_loop =
  build (fun b ->
      Dsl.label b "head";
      Dsl.alui b Instr.Add t1 t1 1;
      Dsl.alui b Instr.Sub t0 t0 1;
      Dsl.br b Instr.Gt t0 zero "head";
      Dsl.halt b)

let head = simple_loop.Mssp_isa.Program.entry

(* [Task.make] over a fresh journal pair *)
let new_task ~id ~start_pc ~end_pc ~end_occurrence ~budget ~live_in =
  Task.make ~id ~start_pc ~end_pc ~end_occurrence ~budget ~live_in
    ~decode:Mssp_seq.Exec.default_decode ~reads:(Journal.create ())
    ~writes:(Journal.create ())

let make_task ?(occurrence = 1) ?(budget = 1000) ~live_in ~end_pc () =
  new_task ~id:0 ~start_pc:head ~end_pc ~end_occurrence:occurrence ~budget
    ~live_in:(Live_in.of_fragment live_in)

let t0_cell = Cell.Reg t0
let t1_cell = Cell.Reg t1

let test_runs_to_halt () =
  let arch = arch_of simple_loop in
  let live_in = Fragment.of_list [ (t0_cell, 3); (t1_cell, 0) ] in
  let task = make_task ~live_in ~end_pc:None () in
  check "halts" true (Task.run task arch = Task.Complete Task.Program_halted);
  check_int "executed 3 iterations" 9 task.Task.executed;
  check "t1 live-out" true (Journal.find task.Task.writes t1_cell = Some 3);
  (* final pc points at halt *)
  check "final pc" true (Journal.pc task.Task.writes = Some (head + 3))

let test_boundary_first_occurrence () =
  let arch = arch_of simple_loop in
  let live_in = Fragment.of_list [ (t0_cell, 5); (t1_cell, 0) ] in
  let task = make_task ~live_in ~end_pc:(Some head) () in
  check "boundary" true
    (Task.run task arch = Task.Complete Task.Reached_boundary);
  check_int "one iteration" 3 task.Task.executed;
  check "t1 = 1" true (Journal.find task.Task.writes t1_cell = Some 1)

let test_boundary_kth_occurrence () =
  let arch = arch_of simple_loop in
  let live_in = Fragment.of_list [ (t0_cell, 5); (t1_cell, 0) ] in
  let task = make_task ~occurrence:3 ~live_in ~end_pc:(Some head) () in
  check "boundary" true
    (Task.run task arch = Task.Complete Task.Reached_boundary);
  check_int "three iterations" 9 task.Task.executed;
  check "t1 = 3" true (Journal.find task.Task.writes t1_cell = Some 3)

let test_budget_exhaustion () =
  let arch = arch_of simple_loop in
  (* boundary occurrence never reached before the loop ends: the task
     overruns into the halt... set end occurrence beyond iteration count
     and a small budget *)
  let live_in = Fragment.of_list [ (t0_cell, 1000); (t1_cell, 0) ] in
  let task = make_task ~budget:10 ~occurrence:100 ~live_in ~end_pc:(Some head) () in
  check "budget" true (Task.run task arch = Task.Failed Task.Budget_exhausted);
  check_int "stopped at budget" 10 task.Task.executed

let test_read_resolution_order () =
  let arch = arch_of simple_loop in
  Full.set_reg arch t0 77 (* architected value, should be shadowed *);
  let live_in = Fragment.of_list [ (t0_cell, 2); (t1_cell, 0) ] in
  let task = make_task ~live_in ~end_pc:None () in
  ignore (Task.run task arch : Task.status);
  (* live-in shadows architected: 2 iterations, not 77 *)
  check "live-in wins" true (Journal.find task.Task.writes t1_cell = Some 2);
  (* own writes shadow live-in: recorded read of t0 is the live-in value,
     once, not subsequent own values *)
  check "recorded t0 is live-in" true
    (Journal.find task.Task.reads t0_cell = Some 2)

let test_records_fallback_reads () =
  let arch = arch_of simple_loop in
  Full.set_reg arch t1 5;
  (* t1 missing from live-in: read through to architected state *)
  let live_in = Fragment.of_list [ (t0_cell, 1) ] in
  let task = make_task ~live_in ~end_pc:None () in
  ignore (Task.run task arch : Task.status);
  check "fallback read recorded" true
    (Journal.find task.Task.reads t1_cell = Some 5);
  check "result uses fallback value" true
    (Journal.find task.Task.writes t1_cell = Some 6);
  (* pc is recorded as a live-in too *)
  check "pc recorded" true (Journal.find task.Task.reads Cell.Pc = Some head)

let test_io_refusal () =
  let p =
    build (fun b ->
        Dsl.li b t0 9;
        Dsl.li b t1 Layout.io_base;
        Dsl.st b t0 t1 0;
        Dsl.halt b)
  in
  let arch = arch_of p in
  let live_in = Fragment.singleton Cell.Pc p.Mssp_isa.Program.entry in
  let task =
    new_task ~id:2 ~start_pc:p.Mssp_isa.Program.entry ~end_pc:None
      ~end_occurrence:1 ~budget:10 ~live_in:(Live_in.of_fragment live_in)
  in
  (match Task.run task arch with
  | Task.Failed (Task.Io_speculative c) ->
    check "right cell" true (Cell.equal c (Cell.mem Layout.io_base))
  | other -> Alcotest.failf "expected I/O refusal, got %s"
      (Format.asprintf "%a" Task.pp_status other));
  (* the two Li instructions executed; the store did not count *)
  check_int "stopped at the store" 2 task.Task.executed

let test_fault_reported () =
  let arch = Full.create () in
  (* nothing loaded: fetching address 0 yields word 0, undecodable *)
  let live_in = Fragment.singleton Cell.Pc 0 in
  let task =
    new_task ~id:3 ~start_pc:0 ~end_pc:None ~end_occurrence:1 ~budget:10
      ~live_in:(Live_in.of_fragment live_in)
  in
  match Task.run task arch with
  | Task.Failed (Task.Fault _) -> ()
  | other ->
    Alcotest.failf "expected fault, got %s"
      (Format.asprintf "%a" Task.pp_status other)

let test_on_access_hook () =
  let arch = arch_of simple_loop in
  let live_in = Fragment.of_list [ (t0_cell, 1); (t1_cell, 0) ] in
  let task = make_task ~live_in ~end_pc:None () in
  let touched = ref [] in
  let on_access a = touched := a :: !touched in
  ignore (Task.run ~on_access task arch : Task.status);
  (* every instruction fetch is a memory access *)
  check "fetches observed" true (List.mem head !touched)

let test_live_in_size_counts_reads_only () =
  let arch = arch_of simple_loop in
  let live_in =
    Fragment.of_list
      [ (t0_cell, 1); (t1_cell, 0); (Cell.Reg t5, 99) (* never read *) ]
  in
  let task = make_task ~live_in ~end_pc:None () in
  ignore (Task.run task arch : Task.status);
  check "unread live-in not recorded" false (Journal.mem task.Task.reads (Cell.Reg t5));
  check "live_in_size = recorded" true
    (Task.live_in_size task = Journal.cardinal task.Task.reads)

(* --- journal <-> fragment agreement: the flat buffers are a faithful
   representation of the fragments they replace --- *)

let arbitrary_bindings : (Cell.t * int) list QCheck.arbitrary =
  let open QCheck.Gen in
  let cell =
    frequency
      [
        (1, return Cell.Pc);
        (3, map (fun i -> Cell.Reg (Mssp_isa.Reg.of_int (1 + (i mod 31)))) nat);
        (6, map (fun a -> Cell.mem (a mod 16)) nat);
      ]
  in
  QCheck.make
    ~print:(fun bs ->
      String.concat "; "
        (List.map
           (fun (c, v) -> Format.asprintf "%a=%d" Cell.pp c v)
           bs))
    (list_size (int_bound 12) (pair cell (int_bound 9)))

let prop_journal_fragment_round_trip =
  QCheck.Test.make ~name:"journal round-trips fragments" ~count:500
    arbitrary_bindings
    (fun bindings ->
      let f = Fragment.of_list bindings in
      Fragment.equal (Journal.to_fragment (Journal.of_fragment f)) f)

let prop_journal_set_find_matches_fragment =
  QCheck.Test.make
    ~name:"journal set/find = fragment add/find over random writes" ~count:500
    arbitrary_bindings
    (fun bindings ->
      let j = Journal.create () in
      let f =
        List.fold_left
          (fun f (c, v) ->
            Journal.set j c v;
            Fragment.add c v f)
          Fragment.empty bindings
      in
      Journal.cardinal j = Fragment.cardinal f
      && List.for_all
           (fun (c, v) -> Journal.find j c = Some v)
           (Fragment.to_list f)
      && Journal.for_all (fun c v -> Fragment.find_opt c f = Some v) j)

(* --- cross-validation: the simulator task against the formal task
   tuples — both must compute seq on the live-ins --- *)

let prop_task_matches_abstract_evolution =
  QCheck.Test.make
    ~name:"simulator task = abstract task evolution (full live-in, empty state)"
    ~count:25
    QCheck.(pair small_nat (int_range 1 25))
    (fun (seed, n) ->
      let module Abstract_task = Mssp_formal.Abstract_task in
      let module Seq_model = Mssp_formal.Seq_model in
      let p = Mssp_fuzz.Gen.generate ~weights:Mssp_fuzz.Gen.plain ~seed ~size:5 () in
      let live_in = Seq_model.complete_of_program p in
      (* run the simulator task for exactly n instructions *)
      let task =
        new_task ~id:0
          ~start_pc:(Option.get (Fragment.pc live_in))
          ~end_pc:None ~end_occurrence:1 ~budget:n
          ~live_in:(Live_in.of_fragment live_in)
      in
      (* the live-in binds every cell the program holds; the rest of
         memory reads 0 from a state that holds nothing, as it does in
         the abstract model's total memory *)
      let status = Task.run task (Full.create ()) in
      let sim_result = Fragment.superimpose live_in (Task.writes_fragment task) in
      (* the abstract task evolves the same live-in by the same count *)
      let abstract =
        Abstract_task.evolve_fully (Abstract_task.make live_in task.Task.executed)
      in
      (match status with
      | Task.Failed Task.Budget_exhausted | Task.Complete Task.Program_halted ->
        true
      | _ -> false)
      && Fragment.equal sim_result abstract.Abstract_task.live_out)

(* --- live-in lookup: by reference = flattened --------------------------- *)

(* The oracle: a task executor over a live-in flattened whole into a
   journal with [Journal.of_fragment], the representation tasks used
   before memory live-ins were looked up in the fragment itself. Reads
   resolve write buffer, then the flattened live-in, then architected
   state,
   recording first-reads; memory touches feed the access list and the
   first I/O touch fails the instruction, as [Task]'s contract says. *)
let oracle_run ~budget ~end_pc ~end_occurrence ~live_in ~start_pc arch =
  let live_in =
    if Fragment.mem Cell.Pc live_in then live_in
    else Fragment.add Cell.Pc start_pc live_in
  in
  let li = Journal.of_fragment live_in in
  let reads = Journal.create () and writes = Journal.create () in
  let accesses = ref [] and io = ref None in
  let touch c =
    match c with
    | Cell.Mem a ->
      if Cell.is_io c && !io = None then io := Some c;
      accesses := a :: !accesses
    | Cell.Pc | Cell.Reg _ -> ()
  in
  let read c =
    touch c;
    match Journal.find writes c with
    | Some _ as r -> r
    | None ->
      let v =
        match Journal.find li c with Some v -> v | None -> Full.get arch c
      in
      if not (Journal.mem reads c) then Journal.set reads c v;
      Some v
  in
  let write c v =
    touch c;
    Journal.set writes c v
  in
  let executed = ref 0 and seen = ref 0 in
  let rec go () =
    if !executed >= budget then Task.Failed Task.Budget_exhausted
    else begin
      io := None;
      let outcome = Mssp_seq.Exec.step ~read ~write in
      match (!io, outcome) with
      | Some c, _ -> Task.Failed (Task.Io_speculative c)
      | None, Mssp_seq.Exec.Stepped -> (
        incr executed;
        match (end_pc, Journal.pc writes) with
        | Some e, Some pc when pc = e ->
          incr seen;
          if !seen >= max 1 end_occurrence then Task.Complete Task.Reached_boundary
          else go ()
        | _ -> go ())
      | None, Mssp_seq.Exec.Halted -> Task.Complete Task.Program_halted
      | None, Mssp_seq.Exec.Fault f -> Task.Failed (Task.Fault f)
      | None, Mssp_seq.Exec.Missing c ->
        Alcotest.failf "oracle: %s read nothing" (Cell.show c)
    end
  in
  let status = go () in
  (status, !executed, reads, writes, List.rev !accesses)

let journal_list j =
  let l = ref [] in
  Journal.iter (fun c v -> l := (c, v) :: !l) j;
  List.rev !l

let task_run ~budget ~end_pc ~end_occurrence ~live_in ~start_pc arch =
  let t = new_task ~id:0 ~start_pc ~end_pc ~end_occurrence ~budget 
    ~live_in:(Live_in.of_fragment live_in) in
  let accesses = ref [] in
  let status =
    Task.run ~on_access:(fun a -> accesses := a :: !accesses) t arch
  in
  ( status,
    t.Task.executed,
    journal_list t.Task.reads,
    journal_list t.Task.writes,
    List.rev !accesses )

(* A generated program with a random live-in: maybe a PC (the entry or a
   word inside the code), registers, and memory cells inside the code
   span (the architected word, or another instruction's word — live-in
   code the slave must fetch from its live-in), around the data base,
   and at the output counter; plus a random boundary. *)
let live_in_case =
  let gen st =
    let int n = Random.State.int st n in
    let p =
      Mssp_fuzz.Gen.generate ~seed:(int 0x3FFFFFFF) ~size:(4 + int 13) ()
    in
    let arch = arch_of p in
    let base = p.Mssp_isa.Program.base in
    let len = Array.length p.Mssp_isa.Program.code in
    let code_addr () = base + int len in
    let reg () = Cell.Reg (Mssp_isa.Reg.of_int (1 + int 31)) in
    let value c =
      match int 3 with
      | 0 -> Full.get arch c
      | 1 -> int 64 - 8
      | _ -> Layout.data_base + int 64
    in
    let binding () =
      match int 8 with
      | 0 | 1 ->
        let c = reg () in
        (c, value c)
      | 2 ->
        let c = Cell.mem (code_addr ()) in
        (c, Full.get arch c)
      | 3 -> (Cell.mem (code_addr ()), Full.get_mem arch (code_addr ()))
      | 4 | 5 ->
        let c = Cell.mem (Layout.data_base + int 64) in
        (c, value c)
      | 6 -> (Cell.mem Layout.out_count_addr, int 4)
      | _ ->
        let c = Cell.mem (int 0x100000) in
        (c, value c)
    in
    let live_in = Fragment.of_list (List.init (int 24) (fun _ -> binding ())) in
    let live_in =
      match int 8 with
      | 0 -> Fragment.add Cell.Pc p.Mssp_isa.Program.entry live_in
      | 1 -> Fragment.add Cell.Pc (code_addr ()) live_in
      | _ -> live_in
    in
    let end_pc = if int 4 = 0 then None else Some (code_addr ()) in
    (p, live_in, end_pc, 1 + int 3)
  in
  QCheck.make
    ~print:(fun (p, li, end_pc, occ) ->
      Printf.sprintf "%s\nlive-in %s\nend %s x%d"
        (Mssp_asm.Emit.program_to_source p)
        (Fragment.show li)
        (match end_pc with Some e -> Printf.sprintf "%#x" e | None -> "halt")
        occ)
    gen

let prop_live_in_by_reference =
  QCheck.Test.make
    ~name:"live-ins by reference = flattened (single step)"
    ~count:150 live_in_case
    (fun (p, live_in, end_pc, end_occurrence) ->
      let arch = arch_of p in
      let start_pc = p.Mssp_isa.Program.entry in
      let budget = 500 in
      let status, executed, reads, writes, accesses =
        oracle_run ~budget ~end_pc ~end_occurrence ~live_in ~start_pc arch
      in
      task_run ~budget ~end_pc ~end_occurrence ~live_in ~start_pc arch
      = (status, executed, journal_list reads, journal_list writes, accesses))

(* [Task.make] never copies the live-in: its allocation is the same for
   one memory binding and for four thousand *)
let test_make_allocation () =
  let regs =
    List.filter_map
      (fun r -> Option.map (fun c -> (c, 1)) (Cell.reg r))
      Mssp_isa.Reg.all
  in
  let live_in n =
    Live_in.of_fragment
      (Fragment.of_list
         ((Cell.Pc, head) :: regs
         @ List.init (n - 1 - List.length regs) (fun i ->
               (Cell.mem (Layout.data_base + (3 * i)), i))))
  in
  let reads = Journal.create () and writes = Journal.create () in
  let allocated live_in =
    let make () =
      Task.make ~id:0 ~start_pc:head ~end_pc:None ~end_occurrence:1 ~budget:1
        ~live_in ~decode:Mssp_seq.Exec.default_decode ~reads ~writes
    in
    ignore (Sys.opaque_identity (make ()));
    (* [Gc.allocated_bytes] sees tables allocated straight on the major
       heap at once, but its minor share can lag (OCaml 5.1), where
       [Gc.minor_words] is exact: take the larger of the two *)
    let minor0 = Gc.minor_words () and all0 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (make ()));
    let minor1 = Gc.minor_words () and all1 = Gc.allocated_bytes () in
    Float.max (8. *. (minor1 -. minor0)) (all1 -. all0)
  in
  let small = allocated (live_in 40) and big = allocated (live_in 4096) in
  check
    (Printf.sprintf "4,096-binding live-in: %.0f bytes, 40-binding: %.0f" big
       small)
    true
    (big <= small +. 2048. && big < 16384.)

(* --- the slave step's allocation ----------------------------------------

   A straight-line loop body: 16 ALU instructions plus one load and one
   store per trip. With [~fresh] each trip's load and store touch new
   words, so an extra trip costs the growth of the journals recording
   them, and an extra instruction must allocate fewer than 3 words.
   Without it every trip touches the same cells, all recorded after the
   first trip, and an extra instruction must allocate (next to)
   nothing: one [Cell.t] boxed per memory touch, as a cell-valued
   access hook would, costs 2.2 words per instruction here. *)

let straightline_body ~fresh trips =
  build (fun b ->
      let src = Dsl.alloc b trips in
      let dst = Dsl.alloc b trips in
      let index = if fresh then t0 else zero in
      Dsl.li b t0 trips;
      Dsl.label b "head";
      for _ = 1 to 16 do
        Dsl.alui b Instr.Add t1 t1 3
      done;
      Dsl.ld b t2 index src;
      Dsl.st b t1 index dst;
      Dsl.alui b Instr.Sub t0 t0 1;
      Dsl.br b Instr.Gt t0 zero "head";
      Dsl.halt b)

(* words allocated by one task run over the body, and its retirements;
   the full major flushes the words allocated straight on the major
   heap (journal growth) into the counters *)
let words_for_trips ~fresh trips =
  let p = straightline_body ~fresh trips in
  let arch = arch_of p in
  let decode =
    Mssp_isa.Program.image_decoder [ Mssp_isa.Program.decode_all p ]
  in
  let touches = ref 0 in
  let on_access _ = incr touches in
  let words () =
    Gc.full_major ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let task =
    Task.make ~id:0 ~start_pc:p.Mssp_isa.Program.entry ~end_pc:None
      ~end_occurrence:1 ~budget:max_int
      ~live_in:(Live_in.of_fragment Fragment.empty) ~decode
      ~reads:(Journal.create ()) ~writes:(Journal.create ())
  in
  let status = Task.run ~on_access task arch in
  let w1 = words () in
  check "halts" true (status = Task.Complete Task.Program_halted);
  (w1 -. w0, task.Task.executed)

let test_step_allocation () =
  let per_instr ~fresh =
    let w_short, n_short = words_for_trips ~fresh 200 in
    let w_long, n_long = words_for_trips ~fresh 2_000 in
    (w_long -. w_short) /. float_of_int (n_long - n_short)
  in
  let fresh = per_instr ~fresh:true and recorded = per_instr ~fresh:false in
  check
    (Printf.sprintf "fresh cells: %.2f words per extra instruction (< 3)" fresh)
    true (fresh < 3.);
  check
    (Printf.sprintf "recorded cells: %.2f words per extra instruction (< 0.5)"
       recorded)
    true (recorded < 0.5)

(* --- journal reuse: a cleared journal is a fresh one ----------------- *)

(* The journal's Fibonacci multiplier and its inverse mod 2^63: the
   products of [base + i * fib_inverse] are [base * fib + i], so for
   small [i] those addresses share a home at every table size and pile
   up into one probe cluster. *)
let fib = 0x1E3779B97F4A7C15

let fib_inverse =
  let rec newton x n =
    if n = 0 then x else newton (x * (2 - (fib * x))) (n - 1)
  in
  newton fib 6

type journal_op = Set_pc of int | Set_reg of int * int | Set_mem of int * int

let journal_rounds =
  let open QCheck.Gen in
  let value = int_range (-50) 50 in
  let addr =
    frequency
      [
        (3, int_range (-2000) 2000);
        (1, int);
        (3, map (fun i -> 0x5EED + (i * fib_inverse)) (int_bound 40));
        (1, map (fun i -> -0x5EED + (i * fib_inverse)) (int_bound 40));
      ]
  in
  let op =
    frequency
      [
        (1, map (fun v -> Set_pc v) value);
        ( 2,
          map2
            (fun i v -> Set_reg (i, v))
            (int_bound (Mssp_isa.Reg.count - 1))
            value );
        (8, map2 (fun a v -> Set_mem (a, v)) addr value);
      ]
  in
  (* one round in four binds enough addresses to grow the tables *)
  let round =
    frequency
      [
        (3, list_size (int_bound 40) op); (1, list_size (int_range 100 400) op);
      ]
  in
  QCheck.make
    ~print:(fun rounds ->
      String.concat " | "
        (List.map
           (fun ops ->
             String.concat ";"
               (List.map
                  (function
                    | Set_pc v -> Printf.sprintf "pc=%d" v
                    | Set_reg (i, v) -> Printf.sprintf "r%d=%d" i v
                    | Set_mem (a, v) -> Printf.sprintf "[%d]=%d" a v)
                  ops))
           rounds))
    (list_size (int_range 1 5) round)

let apply_ops j =
  List.iter (function
    | Set_pc v -> Journal.set_pc j v
    | Set_reg (i, v) -> Journal.set_reg j i v
    | Set_mem (a, v) -> Journal.set_mem j a v)

let for_all_list j =
  let l = ref [] in
  ignore
    (Journal.for_all
       (fun c v ->
         l := (c, v) :: !l;
         true)
       j
      : bool);
  List.rev !l

(* every round but the last is applied and cleared; the journal must
   then answer the last round like a fresh [create ()] does *)
let prop_journal_reuse =
  QCheck.Test.make ~name:"a cleared journal behaves like Journal.create ()"
    ~count:300 journal_rounds
    (fun rounds ->
      assert (fib * fib_inverse = 1);
      let j = Journal.create () in
      let rec replay = function
        | [] -> true
        | [ last ] ->
          apply_ops j last;
          true
        | ops :: rest ->
          apply_ops j ops;
          Journal.clear j;
          Journal.is_empty j && Journal.occupied_slots j = 0 && replay rest
      in
      let cleared = replay rounds in
      let fresh = Journal.create () in
      apply_ops fresh (List.nth rounds (List.length rounds - 1));
      let addrs =
        List.concat_map
          (List.filter_map (function Set_mem (a, _) -> Some a | _ -> None))
          rounds
      in
      let cells =
        Cell.Pc
        :: List.map (fun r -> Cell.Reg r) Mssp_isa.Reg.all
        @ List.map Cell.mem addrs
      in
      cleared
      && Journal.cardinal j = Journal.cardinal fresh
      && Journal.mem_count j = Journal.mem_count fresh
      && Journal.occupied_slots j = Journal.mem_count j
      && List.for_all (fun c -> Journal.find j c = Journal.find fresh c) cells
      && List.for_all
           (fun a -> Journal.mem_index j a = Journal.mem_index fresh a)
           addrs
      && journal_list j = journal_list fresh
      && for_all_list j = for_all_list fresh
      && Fragment.equal (Journal.to_fragment j) (Journal.to_fragment fresh))

let () =
  Alcotest.run "task"
    [
      ( "completion",
        [
          Alcotest.test_case "runs to halt" `Quick test_runs_to_halt;
          Alcotest.test_case "first occurrence" `Quick test_boundary_first_occurrence;
          Alcotest.test_case "k-th occurrence" `Quick test_boundary_kth_occurrence;
          Alcotest.test_case "budget" `Quick test_budget_exhaustion;
        ] );
      ( "views",
        [
          Alcotest.test_case "resolution order" `Quick test_read_resolution_order;
          Alcotest.test_case "fallback recording" `Quick test_records_fallback_reads;
          Alcotest.test_case "I/O refusal" `Quick test_io_refusal;
          Alcotest.test_case "fault" `Quick test_fault_reported;
          Alcotest.test_case "on_access hook" `Quick test_on_access_hook;
          Alcotest.test_case "live-in accounting" `Quick
            test_live_in_size_counts_reads_only;
          Alcotest.test_case "step allocation" `Quick test_step_allocation;
          Mssp_testkit.to_alcotest prop_task_matches_abstract_evolution;
        ] );
      ( "live-ins",
        [
          Mssp_testkit.to_alcotest prop_live_in_by_reference;
          Alcotest.test_case "make allocates O(registers)" `Quick
            test_make_allocation;
        ] );
      ( "journal",
        [
          Mssp_testkit.to_alcotest prop_journal_fragment_round_trip;
          Mssp_testkit.to_alcotest prop_journal_set_find_matches_fragment;
          Mssp_testkit.to_alcotest prop_journal_reuse;
        ] );
    ]
