(* Tests for the DSL and the text assembler, including the
   disassemble/re-assemble round trip. *)

module Instr = Mssp_isa.Instr
module Layout = Mssp_isa.Layout
module Program = Mssp_isa.Program
module Full = Mssp_state.Full
module Machine = Mssp_seq.Machine
module Dsl = Mssp_asm.Dsl
module Parser = Mssp_asm.Parser
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- DSL --- *)

let test_dsl_labels () =
  let b = Dsl.create () in
  Dsl.label b "main";
  Dsl.li b t0 1;
  Dsl.label b "target";
  Dsl.halt b;
  let p = Dsl.build ~entry:"main" b () in
  check_int "entry" Layout.code_base p.entry;
  check_int "target" (Layout.code_base + 1) (Program.symbol p "target")

let test_dsl_duplicate_label () =
  let b = Dsl.create () in
  Dsl.label b "x";
  Dsl.nop b;
  Dsl.label b "x";
  Alcotest.check_raises "duplicate" (Invalid_argument "Dsl.label: duplicate label \"x\"")
    (fun () -> Dsl.nop b)

let test_dsl_undefined_label () =
  let b = Dsl.create () in
  Dsl.jmp b "nowhere";
  check "undefined label" true
    (try
       ignore (Dsl.build b () : Program.t);
       false
     with Invalid_argument _ -> true)

let test_dsl_branch_offsets () =
  let b = Dsl.create () in
  Dsl.label b "top";
  Dsl.nop b;
  Dsl.br b Instr.Eq zero zero "top";
  Dsl.jmp b "bottom";
  Dsl.label b "bottom";
  Dsl.halt b;
  let p = Dsl.build b () in
  check "backward branch" true (p.code.(1) = Instr.Br (Instr.Eq, zero, zero, -1));
  check "forward jump" true (p.code.(2) = Instr.Jmp 1)

let test_dsl_large_li () =
  let big = 0x123456789ABCDEF in
  let b = Dsl.create () in
  Dsl.li b t0 big;
  Dsl.st_addr b t0 Layout.data_base;
  Dsl.halt b;
  let m = Machine.run_program (Dsl.build b ()) in
  check_int "large positive" big (Full.get_mem m.state Layout.data_base);
  let b = Dsl.create () in
  Dsl.li b t0 (-big);
  Dsl.st_addr b t0 Layout.data_base;
  Dsl.halt b;
  let m = Machine.run_program (Dsl.build b ()) in
  check_int "large negative" (-big) (Full.get_mem m.state Layout.data_base);
  let b = Dsl.create () in
  Dsl.li b t0 min_int;
  Dsl.li b t1 max_int;
  Dsl.st_addr b t0 Layout.data_base;
  Dsl.st_addr b t1 (Layout.data_base + 1);
  Dsl.halt b;
  let m = Machine.run_program (Dsl.build b ()) in
  check_int "min_int" min_int (Full.get_mem m.state Layout.data_base);
  check_int "max_int" max_int (Full.get_mem m.state (Layout.data_base + 1))

let test_dsl_data () =
  let b = Dsl.create () in
  let a1 = Dsl.alloc b ~label:"buf" 4 in
  let a2 = Dsl.data_words b [ 1; 2 ] in
  check_int "alloc at base" Layout.data_base a1;
  check_int "sequential" (Layout.data_base + 4) a2;
  Dsl.la b t0 "buf";
  Dsl.halt b;
  let p = Dsl.build b () in
  check "la resolved" true (p.code.(0) = Instr.Li (t0, a1));
  check "data image" true
    (List.mem (a2, 1) p.data && List.mem (a2 + 1, 2) p.data)

(* --- text assembler --- *)

let simple_source =
  {|
; sum the first 5 naturals
.entry main
main:
    li   t0, 5
    li   t1, 0
loop:
    add  t1, t1, t0
    subi t0, t0, 1
    bne  t0, zero, loop
    st   t1, 0(gp)
    halt
|}

let test_parse_and_run () =
  match Parser.parse simple_source with
  | Error e -> Alcotest.failf "parse error: %s" (Format.asprintf "%a" Parser.pp_error e)
  | Ok p ->
    let m = Machine.run_program p in
    check_int "runs" 15 (Full.get_mem m.state Layout.data_base)

let test_parse_data_section () =
  let src =
    {|
.entry main
main:
    la  t0, table
    ld  t1, 1(t0)
    st  t1, 0(gp)
    halt
.data
.org 0x110000
table: .word 10 20 30
buf: .space 2
after: .word 7
|}
  in
  let p = Parser.parse_exn src in
  check_int "org respected" 0x110000 (Program.symbol p "table");
  check_int "space reserves" (0x110000 + 5) (Program.symbol p "after");
  let m = Machine.run_program p in
  check_int "data read" 20 (Full.get_mem m.state Layout.data_base)

let test_parse_base () =
  let p = Parser.parse_exn ".base 0x2000\nmain: halt\n" in
  check_int "base" 0x2000 p.base;
  check_int "entry defaults to base" 0x2000 p.entry

let test_parse_mem_operands () =
  let p = Parser.parse_exn "ld t0, (sp)\nst t1, -3(gp)\nhalt\n" in
  check "no offset" true (p.code.(0) = Instr.Ld (t0, sp, 0));
  check "negative offset" true (p.code.(1) = Instr.St (t1, gp, -3))

let test_parse_errors () =
  let bad = [ "frobnicate t0"; "li t0"; "ld t0, 4[sp]"; "bne t0, t1"; "li x9, 1" ] in
  List.iter
    (fun src ->
      match Parser.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" src)
    bad

let test_comment_styles () =
  let p = Parser.parse_exn "nop ; trailing\n# whole line\nnop # also\nhalt\n" in
  check_int "three instructions" 3 (Program.length p)

(* disassemble with Program.pp-like rendering, re-assemble, same semantics *)
let test_disassemble_reassemble () =
  let b = Dsl.create () in
  Dsl.label b "main";
  Dsl.li b t0 6;
  Dsl.li b t1 1;
  Dsl.label b "loop";
  Dsl.alu b Instr.Mul t1 t1 t0;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "loop";
  Dsl.st_addr b t1 Layout.data_base;
  Dsl.out b t1;
  Dsl.halt b;
  let p = Dsl.build ~entry:"main" b () in
  (* render each instruction with Instr.pp; offsets print numerically *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf ".base %d\n" p.base);
  Array.iter
    (fun i -> Buffer.add_string buf (Instr.show i ^ "\n"))
    p.code;
  let p' = Parser.parse_exn (Buffer.contents buf) in
  let m = Machine.run_program p and m' = Machine.run_program p' in
  check "same final state" true (Full.equal_observable m.state m'.state);
  check "same output" true (Machine.output m.state = Machine.output m'.state);
  check_int "factorial computed" 720 (Full.get_mem m'.state Layout.data_base)

(* --- emit: the full round trip, propertywise --- *)

let behaviors_equal p p' =
  let run q =
    let m = Machine.of_program q in
    let stop = Machine.run ~fuel:500_000 m in
    (stop, m)
  in
  let stop, m = run p and stop', m' = run p' in
  stop = stop'
  && Full.equal_observable m.Machine.state m'.Machine.state

let test_emit_roundtrip_bench () =
  (* a benchmark program with data, labels, non-base entry *)
  let p = (Mssp_workload.Workload.find "branchy").Mssp_workload.Workload.program ~size:100 in
  let p' = Parser.parse_exn (Mssp_asm.Emit.program_to_source p) in
  check "same base" true (p'.Program.base = p.Program.base);
  check "same entry" true (p'.Program.entry = p.Program.entry);
  check "same code" true (p'.Program.code = p.Program.code);
  check "same behavior" true (behaviors_equal p p')

let prop_emit_roundtrip =
  QCheck.Test.make ~name:"parse (emit p) behaves like p" ~count:30
    QCheck.(pair small_nat (int_range 3 15))
    (fun (seed, size) ->
      let p = Mssp_fuzz.Gen.generate ~weights:Mssp_fuzz.Gen.plain ~seed ~size () in
      let p' = Parser.parse_exn (Mssp_asm.Emit.program_to_source p) in
      p'.Program.code = p.Program.code && behaviors_equal p p')

let test_emit_duplicate_data () =
  (* later bindings for the same address must win, as in the loader *)
  let p =
    Program.make ~data:[ (Layout.data_base, 1); (Layout.data_base, 2) ]
      [| Instr.Ld (t0, zero, Layout.data_base); Instr.Out t0; Instr.Halt |]
  in
  let p' = Parser.parse_exn (Mssp_asm.Emit.program_to_source p) in
  let m = Machine.run_program p' in
  check "last binding wins" true (Machine.output m.Machine.state = [ 2 ])

let () =
  Alcotest.run "asm"
    [
      ( "dsl",
        [
          Alcotest.test_case "labels" `Quick test_dsl_labels;
          Alcotest.test_case "duplicate label" `Quick test_dsl_duplicate_label;
          Alcotest.test_case "undefined label" `Quick test_dsl_undefined_label;
          Alcotest.test_case "branch offsets" `Quick test_dsl_branch_offsets;
          Alcotest.test_case "large li" `Quick test_dsl_large_li;
          Alcotest.test_case "data" `Quick test_dsl_data;
        ] );
      ( "parser",
        [
          Alcotest.test_case "parse and run" `Quick test_parse_and_run;
          Alcotest.test_case "data section" `Quick test_parse_data_section;
          Alcotest.test_case "base directive" `Quick test_parse_base;
          Alcotest.test_case "memory operands" `Quick test_parse_mem_operands;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "comments" `Quick test_comment_styles;
          Alcotest.test_case "disassemble/re-assemble" `Quick
            test_disassemble_reassemble;
        ] );
      ( "emit",
        [
          Alcotest.test_case "benchmark round-trip" `Quick test_emit_roundtrip_bench;
          Mssp_testkit.to_alcotest prop_emit_roundtrip;
          Alcotest.test_case "duplicate data" `Quick test_emit_duplicate_data;
        ] );
    ]
