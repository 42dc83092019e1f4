(* Unit and property tests for the SIR ISA: registers, ALU semantics,
   encode/decode round-trips, operand metadata. *)

open Mssp_isa

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- registers --- *)

let test_reg_range () =
  check_int "count" 32 Reg.count;
  check "of_int_opt -1" true (Reg.of_int_opt (-1) = None);
  check "of_int_opt 32" true (Reg.of_int_opt 32 = None);
  check "of_int_opt 31" true (Reg.of_int_opt 31 <> None);
  Alcotest.check_raises "of_int 32" (Invalid_argument "Reg.of_int: 32 out of range")
    (fun () -> ignore (Reg.of_int 32 : Reg.t))

let test_reg_names () =
  List.iter
    (fun r ->
      match Reg.of_name (Reg.name r) with
      | Some r' -> check ("round-trip " ^ Reg.name r) true (Reg.equal r r')
      | None -> Alcotest.failf "name %s did not parse" (Reg.name r))
    Reg.all;
  check "rN form" true (Reg.of_name "r7" = Some (Reg.of_int 7));
  check "bad name" true (Reg.of_name "t12" = None);
  check "bad name 2" true (Reg.of_name "x3" = None)

(* --- ALU semantics --- *)

let test_alu_basics () =
  check_int "add" 7 (Instr.eval_alu Add 3 4);
  check_int "sub" (-1) (Instr.eval_alu Sub 3 4);
  check_int "mul" 12 (Instr.eval_alu Mul 3 4);
  check_int "div" 2 (Instr.eval_alu Div 9 4);
  check_int "div-neg" (-2) (Instr.eval_alu Div (-9) 4);
  check_int "rem" 1 (Instr.eval_alu Rem 9 4);
  check_int "div0" 0 (Instr.eval_alu Div 9 0);
  check_int "rem0" 0 (Instr.eval_alu Rem 9 0);
  check_int "and" 0b100 (Instr.eval_alu And 0b110 0b101);
  check_int "or" 0b111 (Instr.eval_alu Or 0b110 0b101);
  check_int "xor" 0b011 (Instr.eval_alu Xor 0b110 0b101);
  check_int "shl" 24 (Instr.eval_alu Shl 3 3);
  check_int "shr" 3 (Instr.eval_alu Shr 24 3);
  check_int "shr-arith" (-2) (Instr.eval_alu Shr (-8) 2);
  check_int "slt" 1 (Instr.eval_alu Slt (-1) 0);
  check_int "sle" 1 (Instr.eval_alu Sle 4 4);
  check_int "seq" 0 (Instr.eval_alu Seq 4 5);
  check_int "sne" 1 (Instr.eval_alu Sne 4 5)

let test_cmp () =
  check "eq" true (Instr.eval_cmp Eq 3 3);
  check "ne" false (Instr.eval_cmp Ne 3 3);
  check "lt" true (Instr.eval_cmp Lt (-4) 0);
  check "ge" true (Instr.eval_cmp Ge 4 4);
  check "le" false (Instr.eval_cmp Le 5 4);
  check "gt" true (Instr.eval_cmp Gt 5 4)

(* --- encode/decode --- *)

let sample_instrs =
  let r = Reg.of_int in
  [
    Instr.Alu (Add, r 1, r 2, r 3);
    Instr.Alu (Sne, r 31, r 30, r 29);
    Instr.Alui (Mul, r 4, r 4, -7);
    Instr.Alui (Shl, r 5, r 6, 31);
    Instr.Li (r 7, 0);
    Instr.Li (r 7, -2147483648);
    Instr.Li (r 7, 2147483647);
    Instr.Ld (r 8, r 9, 4096);
    Instr.St (r 10, r 11, -4096);
    Instr.Br (Eq, r 1, r 2, -100);
    Instr.Br (Gt, r 0, r 1, 100);
    Instr.Jmp 12345;
    Instr.Jal (r 1, -12345);
    Instr.Jr (r 15);
    Instr.Jalr (r 1, r 15);
    Instr.Out (r 3);
    Instr.Fork 0x1234;
    Instr.Halt;
    Instr.Nop;
  ]

let test_roundtrip () =
  List.iter
    (fun i ->
      match Instr.decode (Instr.encode i) with
      | Some i' -> check (Instr.show i) true (Instr.equal i i')
      | None -> Alcotest.failf "decode failed for %s" (Instr.show i))
    sample_instrs

let test_encode_rejects_large_imm () =
  Alcotest.check_raises "imm too large"
    (Invalid_argument "Instr.encode: immediate 2147483648 does not fit")
    (fun () ->
      ignore (Instr.encode (Instr.Jmp 2147483648) : int))

let test_decode_total () =
  (* decode never raises, and rejects words with junk in unused fields *)
  check "negative" true (Instr.decode (-1) = None);
  check "high bits" true (Instr.decode (1 lsl 60) = None);
  check "bad opcode" true (Instr.decode 0xFF = None);
  (* Halt with a non-zero register field is invalid *)
  let halt_w = Instr.encode Instr.Halt in
  check "halt+junk" true (Instr.decode (halt_w lor (3 lsl 8)) = None)

(* decode . encode = id, propertywise over random valid instructions *)
let arbitrary_instr : Instr.t QCheck.arbitrary =
  let open QCheck.Gen in
  let reg = map Reg.of_int (int_bound 31) in
  let imm = frequency [ (5, int_bound 1000); (1, map (fun x -> -x) (int_bound 1000)); (1, int_range (-2147483648) 2147483647) ] in
  let alu_op =
    oneofl
      [
        Instr.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Slt; Sle; Seq; Sne;
      ]
  in
  let cmp_op = oneofl [ Instr.Eq; Ne; Lt; Ge; Le; Gt ] in
  let gen =
    frequency
      [
        (4, map4 (fun op a b c -> Instr.Alu (op, a, b, c)) alu_op reg reg reg);
        (4, map4 (fun op a b i -> Instr.Alui (op, a, b, i)) alu_op reg reg imm);
        (2, map2 (fun r i -> Instr.Li (r, i)) reg imm);
        (2, map3 (fun a b i -> Instr.Ld (a, b, i)) reg reg imm);
        (2, map3 (fun a b i -> Instr.St (a, b, i)) reg reg imm);
        (2, map4 (fun c a b i -> Instr.Br (c, a, b, i)) cmp_op reg reg imm);
        (1, map (fun i -> Instr.Jmp i) imm);
        (1, map2 (fun r i -> Instr.Jal (r, i)) reg imm);
        (1, map (fun r -> Instr.Jr r) reg);
        (1, map2 (fun a b -> Instr.Jalr (a, b)) reg reg);
        (1, map (fun r -> Instr.Out r) reg);
        (1, map (fun i -> Instr.Fork (abs i)) imm);
        (1, return Instr.Halt);
        (1, return Instr.Nop);
      ]
  in
  QCheck.make ~print:Instr.show gen

let prop_roundtrip =
  QCheck.Test.make ~name:"decode (encode i) = i" ~count:2000 arbitrary_instr
    (fun i -> Instr.decode (Instr.encode i) = Some i)

(* --- operand metadata --- *)

let test_writes_reg () =
  let r = Reg.of_int in
  check "alu dest" true (Instr.writes_reg (Alu (Add, r 5, r 1, r 2)) = Some (r 5));
  check "zero dest" true (Instr.writes_reg (Alu (Add, r 0, r 1, r 2)) = None);
  check "store" true (Instr.writes_reg (St (r 1, r 2, 0)) = None);
  check "jal" true (Instr.writes_reg (Jal (r 1, 4)) = Some (r 1))

let test_branch_targets () =
  let r = Reg.of_int in
  check "br" true
    (Instr.branch_targets ~pc:100 (Br (Eq, r 1, r 2, 10)) = [ 110; 101 ]);
  check "jmp" true (Instr.branch_targets ~pc:100 (Jmp (-5)) = [ 95 ]);
  check "jr" true (Instr.branch_targets ~pc:100 (Jr (r 1)) = []);
  check "halt" true (Instr.branch_targets ~pc:100 Halt = []);
  check "fallthrough" true (Instr.branch_targets ~pc:100 Nop = [ 101 ])

let test_program () =
  let p =
    Program.make ~entry:(Layout.code_base + 1)
      [| Instr.Nop; Instr.Halt |]
  in
  check_int "length" 2 (Program.length p);
  check "in_code" true (Program.in_code p Layout.code_base);
  check "not in_code" false (Program.in_code p (Layout.code_base + 2));
  check "instr_at" true (Program.instr_at p (Layout.code_base + 1) = Some Instr.Halt);
  check "instr_at out" true (Program.instr_at p 0 = None)

(* The master decodes every fetched instruction through a two-image
   decoder (distilled + original), so a decode must not allocate: not
   on a hit in either image, nor on a miss served by the decode cache. *)
let test_image_decoder_alloc () =
  let li = Instr.Li (Reg.of_int 1, 7)
  and inc = Instr.Alui (Add, Reg.of_int 2, Reg.of_int 2, 1)
  and jmp = Instr.Jmp 3 in
  let a = Program.make [| li; Instr.Halt |] in
  let b = Program.make ~base:(Layout.code_base + 100) [| Instr.Nop; inc |] in
  let decode =
    Program.image_decoder [ Program.decode_all a; Program.decode_all b ]
  in
  (* a hit in each image, and a miss outside both *)
  let probes =
    [|
      (a.Program.base, li); (b.Program.base + 1, inc); (Layout.code_base + 50, jmp);
    |]
  in
  let words = Array.map (fun (pc, i) -> (pc, Instr.encode i)) probes in
  Array.iteri
    (fun k (pc, word) ->
      check (Printf.sprintf "probe %d" k) true
        (decode ~pc ~word = Some (snd probes.(k))))
    words;
  let m0 = Gc.minor_words () in
  for n = 0 to 9_999 do
    let pc, word = Array.unsafe_get words (n mod 3) in
    ignore (Sys.opaque_identity (decode ~pc ~word))
  done;
  let m1 = Gc.minor_words () in
  check
    (Printf.sprintf "10,000 decodes: %.0f minor words" (m1 -. m0))
    true
    (m1 -. m0 = 0.)

let () =
  Alcotest.run "isa"
    [
      ( "reg",
        [
          Alcotest.test_case "range" `Quick test_reg_range;
          Alcotest.test_case "names" `Quick test_reg_names;
        ] );
      ( "alu",
        [
          Alcotest.test_case "basics" `Quick test_alu_basics;
          Alcotest.test_case "cmp" `Quick test_cmp;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "samples round-trip" `Quick test_roundtrip;
          Alcotest.test_case "rejects large imm" `Quick test_encode_rejects_large_imm;
          Alcotest.test_case "decode total" `Quick test_decode_total;
          Mssp_testkit.to_alcotest prop_roundtrip;
        ] );
      ( "metadata",
        [
          Alcotest.test_case "writes_reg" `Quick test_writes_reg;
          Alcotest.test_case "branch_targets" `Quick test_branch_targets;
          Alcotest.test_case "program" `Quick test_program;
          Alcotest.test_case "two-image decoder allocates nothing" `Quick
            test_image_decoder_alloc;
        ] );
    ]
