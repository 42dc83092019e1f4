(* Cross-library integration: whole-pipeline flows that no single
   suite exercises — text assembly in, MSSP out; MiniC in, formal
   models out; emit/exec round trips through the machine. *)

module Full = Mssp_state.Full
module Machine = Mssp_seq.Machine
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module B = Mssp_baseline.Baseline

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a text-assembly program through the entire MSSP pipeline *)
let asm_source =
  {|
; triangular-number table with a defensive check
.entry main
main:
    li   s0, 400          ; n
    li   s1, 0            ; i
    li   s2, 0            ; acc
    li   s13, 1000000000  ; overflow limit
loop:
    bgt  s2, s13, oops
    addi s1, s1, 1
    add  s2, s2, s1
    st   s2, 0(gp)        ; table cursorless: communicating store
    blt  s1, s0, loop
    out  s2
    halt
oops:
    li   s2, -1
    out  s2
    halt
|}

let test_assembly_to_mssp () =
  let p = Mssp_asm.Parser.parse_exn asm_source in
  let profile = Profile.collect p in
  let d = Distill.distill p profile in
  let baseline = B.sequential ~also_load:[ d.Distill.distilled ] p in
  let cfg = { Config.default with Config.verify_refinement = true } in
  let r = M.run ~config:cfg d in
  check "halted" true (r.M.stop = M.Halted);
  check "states equal" true (Full.equal_observable baseline.B.state r.M.arch);
  check "output" true (Machine.output r.M.arch = [ 400 * 401 / 2 ]);
  check_int "refinement" 0 r.M.refinement_violations;
  check "tasks ran" true (r.M.stats.M.tasks_committed > 1)

(* MiniC -> compile -> emit -> reparse -> identical behavior *)
let test_minic_emit_roundtrip () =
  let src =
    "int a[10];\n\
     int main() { int i = 0; while (i < 10) { a[i] = i * i; i = i + 1; }\n\
     print(a[7]); return a[3]; }"
  in
  let p = Result.get_ok (Mssp_minic.Codegen.compile_source src) in
  let p' = Mssp_asm.Parser.parse_exn (Mssp_asm.Emit.program_to_source p) in
  let m = Machine.run_program p and m' = Machine.run_program p' in
  check "same output" true
    (Machine.output m.Machine.state = Machine.output m'.Machine.state);
  check "same states" true (Full.equal_observable m.Machine.state m'.Machine.state);
  check "printed 49" true (Machine.output m.Machine.state = [ 49 ])

(* MiniC in, formal models out: a compiled program's 3 + 4 task chain
   is safe link by link, and committing it lands on the SEQ state *)
let test_minic_tasks_through_formal_models () =
  let module Seq_model = Mssp_formal.Seq_model in
  let module Abstract_task = Mssp_formal.Abstract_task in
  let module Safety = Mssp_formal.Safety in
  let p =
    Result.get_ok
      (Mssp_minic.Codegen.compile_source
         "int main() { int i = 5; int s = 0; while (i > 0) { s = s + i; i = i - 1; } return s; }")
  in
  let s0 = Seq_model.complete_of_program p in
  let t1 = Abstract_task.make s0 3 in
  let t2 = Abstract_task.make (Seq_model.seq s0 3) 4 in
  check "first task safe" true (Safety.safe t1 s0);
  let s1 = Safety.commit t1 s0 in
  check "second task safe" true (Safety.safe t2 s1);
  check "commits land on seq 7" true
    (Seq_model.equal (Safety.commit t2 s1) (Seq_model.seq s0 7))

(* CSV round trip of a bench-style table *)
let test_csv_module () =
  let module Csv = Mssp_metrics.Csv in
  check "plain" true (Csv.line [ "a"; "1" ] = "a,1");
  check "quoted comma" true (Csv.line [ "a,b" ] = "\"a,b\"");
  check "quoted quote" true (Csv.line [ "say \"hi\"" ] = "\"say \"\"hi\"\"\"");
  let s = Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4" ] ] in
  check "rows" true (s = "x,y\n1,2\n3,4\n");
  let file = Filename.temp_file "mssp" ".csv" in
  Csv.write_file file ~header:[ "h" ] [ [ "v" ] ];
  let content = In_channel.with_open_text file In_channel.input_all in
  Sys.remove file;
  check "written" true (content = "h\nv\n")

(* dual pipeline: the same program under every machine we have *)
let test_all_machines_agree () =
  let b = Mssp_workload.Workload.find "branchy" in
  let p = b.Mssp_workload.Workload.program ~size:500 in
  let seq = B.sequential p in
  let oracle = B.oracle_parallel ~slaves:4 p in
  let ilp = B.ilp_limit ~width:4 p in
  let profile = Profile.collect (b.Mssp_workload.Workload.program ~size:100) in
  let d = Distill.distill p profile in
  let mssp = M.run d in
  (* every machine retires the same dynamic instruction count *)
  check_int "oracle count" seq.B.instructions oracle.B.instructions;
  check_int "ilp count" seq.B.instructions ilp.B.instructions;
  check_int "mssp count" seq.B.instructions (M.total_committed mssp);
  (* and identical outputs where state is produced *)
  check "oracle state" true (Full.equal_observable seq.B.state oracle.B.state);
  check "ilp state" true (Full.equal_observable seq.B.state ilp.B.state);
  check "mssp output" true
    (Machine.output seq.B.state = Machine.output mssp.M.arch)

(* printer smoke tests: every pp in the public API renders without
   raising (Format bugs otherwise surface only in debugging sessions) *)
let test_printers_total () =
  let b = Mssp_workload.Workload.find "qsort" in
  let p = b.Mssp_workload.Workload.program ~size:60 in
  let profile = Profile.collect p in
  let d = Distill.distill p profile in
  let tracer, events = Mssp_trace.Trace.recording () in
  let cfg = { Config.default with Config.tracer = Some tracer } in
  let r = M.run ~config:cfg d in
  let rendered =
    [
      Format.asprintf "%a" Mssp_isa.Program.pp p;
      Format.asprintf "%a" Distill.pp_stats d.Distill.stats;
      Format.asprintf "%a" M.pp_stats r.M.stats;
      Format.asprintf "%a" Profile.pp_summary profile;
      Format.asprintf "%a" Mssp_state.Full.pp r.M.arch;
      Format.asprintf "%a" Mssp_cfg.Cfg.pp (Mssp_cfg.Cfg.build p);
      String.concat "\n"
        (List.map (Format.asprintf "%a" Mssp_trace.Trace.pp_event) (events ()));
      Format.asprintf "%a" Mssp_trace.Trace.Summary.pp
        (Mssp_trace.Trace.Summary.of_events (events ()));
      Format.asprintf "%a" Mssp_state.Fragment.pp
        (Mssp_state.Fragment.of_list
           [ (Mssp_state.Cell.Pc, 1); (Mssp_state.Cell.mem 2, 3) ]);
      Format.asprintf "%a" Mssp_task.Task.pp
        (Mssp_task.Task.make ~id:0 ~start_pc:p.Mssp_isa.Program.entry
           ~end_pc:None ~end_occurrence:1 ~budget:10
           ~live_in:(Mssp_state.Live_in.of_pc p.Mssp_isa.Program.entry)
           ~decode:Mssp_seq.Exec.default_decode
           ~reads:(Mssp_task.Journal.create ())
           ~writes:(Mssp_task.Journal.create ()));
    ]
  in
  List.iter (fun s -> check "non-empty rendering" true (String.length s > 0)) rendered

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "assembly to MSSP" `Quick test_assembly_to_mssp;
          Alcotest.test_case "minic emit round trip" `Quick test_minic_emit_roundtrip;
          Alcotest.test_case "minic tasks through formal models" `Quick
            test_minic_tasks_through_formal_models;
          Alcotest.test_case "csv module" `Quick test_csv_module;
          Alcotest.test_case "all machines agree" `Quick test_all_machines_agree;
          Alcotest.test_case "printers total" `Quick test_printers_total;
        ] );
    ]
