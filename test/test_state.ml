(* Tests for cells, fragments and full states — including the paper's
   Definition 8 axioms (associativity, containment, idempotency of
   superimposition) as properties over random fragments. *)

open Mssp_state
module Reg = Mssp_isa.Reg

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Cell --- *)

let test_cell_order () =
  check "pc < reg" true (Cell.compare Cell.Pc (Cell.Reg (Reg.of_int 1)) < 0);
  check "reg < mem" true (Cell.compare (Cell.Reg (Reg.of_int 31)) (Cell.mem 0) < 0);
  check "mem order" true (Cell.compare (Cell.mem 1) (Cell.mem 2) < 0);
  check "reg zero is not a cell" true (Cell.reg Reg.zero = None);
  check "other regs are" true (Cell.reg (Reg.of_int 3) <> None);
  check "io" true (Cell.is_io (Cell.mem Mssp_isa.Layout.io_base));
  check "not io" false (Cell.is_io (Cell.mem 0))

(* --- Fragment --- *)

let test_fragment_basics () =
  let f = Fragment.of_list [ (Cell.Pc, 5); (Cell.mem 10, 42) ] in
  check_int "cardinal" 2 (Fragment.cardinal f);
  check "find" true (Fragment.find_opt (Cell.mem 10) f = Some 42);
  check "pc" true (Fragment.pc f = Some 5);
  check "missing" true (Fragment.find_opt (Cell.mem 11) f = None);
  let f' = Fragment.add (Cell.mem 10) 0 f in
  check "overwrite" true (Fragment.find_opt (Cell.mem 10) f' = Some 0);
  check "remove" true
    (Fragment.find_opt (Cell.mem 10) (Fragment.remove (Cell.mem 10) f) = None)

let test_superimpose_semantics () =
  let s0 = Fragment.of_list [ (Cell.mem 1, 10); (Cell.mem 2, 20) ] in
  let s1 = Fragment.of_list [ (Cell.mem 2, 99); (Cell.mem 3, 30) ] in
  let r = Fragment.superimpose s0 s1 in
  (* s1 wins on overlap; uncovered cells of s0 appear unchanged *)
  check "overlap" true (Fragment.find_opt (Cell.mem 2) r = Some 99);
  check "from s0" true (Fragment.find_opt (Cell.mem 1) r = Some 10);
  check "from s1" true (Fragment.find_opt (Cell.mem 3) r = Some 30);
  check "unit left" true (Fragment.equal (Fragment.superimpose Fragment.empty s1) s1);
  check "unit right" true (Fragment.equal (Fragment.superimpose s0 Fragment.empty) s0)

let test_consistent () =
  let s2 = Fragment.of_list [ (Cell.mem 1, 10); (Cell.mem 2, 20) ] in
  let sub = Fragment.of_list [ (Cell.mem 1, 10) ] in
  let conflicting = Fragment.of_list [ (Cell.mem 1, 11) ] in
  let wider = Fragment.of_list [ (Cell.mem 1, 10); (Cell.mem 9, 1) ] in
  check "subset ⊑" true (Fragment.consistent sub s2);
  check "reflexive" true (Fragment.consistent s2 s2);
  check "empty ⊑ s" true (Fragment.consistent Fragment.empty s2);
  check "value conflict" false (Fragment.consistent conflicting s2);
  check "missing cell" false (Fragment.consistent wider s2)

(* Random fragments over a small cell universe so overlaps are common. *)
let arbitrary_fragment : Fragment.t QCheck.arbitrary =
  let open QCheck.Gen in
  let cell =
    frequency
      [
        (1, return Cell.Pc);
        (3, map (fun i -> Cell.Reg (Reg.of_int (1 + (i mod 31)))) nat);
        (6, map (fun a -> Cell.mem (a mod 12)) nat);
      ]
  in
  let binding = pair cell (int_bound 5) in
  let gen = map Fragment.of_list (list_size (int_bound 8) binding) in
  QCheck.make ~print:Fragment.show gen

let prop_superimpose_assoc =
  QCheck.Test.make ~name:"(s1 <- s2) <- s3 = s1 <- (s2 <- s3)" ~count:1000
    (QCheck.triple arbitrary_fragment arbitrary_fragment arbitrary_fragment)
    (fun (s1, s2, s3) ->
      Fragment.equal
        (Fragment.superimpose (Fragment.superimpose s1 s2) s3)
        (Fragment.superimpose s1 (Fragment.superimpose s2 s3)))

let prop_containment =
  QCheck.Test.make
    ~name:"s1 ⊑ s2 implies (s1 <- s3) ⊑ (s2 <- s3)" ~count:1000
    (QCheck.triple arbitrary_fragment arbitrary_fragment arbitrary_fragment)
    (fun (s1, s2, s3) ->
      (* generate a consistent pair by widening s1 *)
      let s2 = Fragment.superimpose s2 s1 in
      QCheck.assume (Fragment.consistent s1 s2);
      Fragment.consistent (Fragment.superimpose s1 s3) (Fragment.superimpose s2 s3))

let prop_idempotency =
  QCheck.Test.make ~name:"s2 ⊑ s1 implies s1 <- s2 = s1" ~count:1000
    (QCheck.pair arbitrary_fragment arbitrary_fragment)
    (fun (s1, s2) ->
      let s1 = Fragment.superimpose s1 s2 in
      QCheck.assume (Fragment.consistent s2 s1);
      Fragment.equal (Fragment.superimpose s1 s2) s1)

let prop_consistent_partial_order =
  QCheck.Test.make ~name:"⊑ is transitive" ~count:1000
    (QCheck.triple arbitrary_fragment arbitrary_fragment arbitrary_fragment)
    (fun (a, b, c) ->
      let b = Fragment.superimpose b a in
      let c = Fragment.superimpose c b in
      QCheck.assume (Fragment.consistent a b && Fragment.consistent b c);
      Fragment.consistent a c)

(* --- Full --- *)

let test_full_defaults () =
  let s = Full.create () in
  check_int "mem default" 0 (Full.get_mem s 123456);
  check_int "reg default" 0 (Full.get_reg s (Reg.of_int 7));
  check_int "pc default" 0 (Full.pc s)

let test_full_zero_reg () =
  let s = Full.create () in
  Full.set_reg s Reg.zero 42;
  check_int "zero stays zero" 0 (Full.get_reg s Reg.zero);
  Full.set s (Cell.Reg Reg.zero) 42;
  check_int "via cell too" 0 (Full.get s (Cell.Reg Reg.zero))

let test_full_copy_isolated () =
  let s = Full.create () in
  Full.set_mem s 5 55;
  let s' = Full.copy s in
  Full.set_mem s' 5 66;
  Full.set_reg s' (Reg.of_int 4) 9;
  check_int "original mem" 55 (Full.get_mem s 5);
  check_int "copy mem" 66 (Full.get_mem s' 5);
  check_int "original reg" 0 (Full.get_reg s (Reg.of_int 4))

let test_full_load () =
  let p =
    Mssp_isa.Program.make ~data:[ (Mssp_isa.Layout.data_base, 77) ]
      [| Mssp_isa.Instr.Nop; Mssp_isa.Instr.Halt |]
  in
  let s = Full.create () in
  Full.load s p;
  check_int "pc at entry" p.entry (Full.pc s);
  check_int "sp seeded" Mssp_isa.Layout.stack_base (Full.get_reg s Reg.sp);
  check_int "data written" 77 (Full.get_mem s Mssp_isa.Layout.data_base);
  check "code decodes" true
    (Mssp_isa.Instr.decode (Full.get_mem s p.base) = Some Mssp_isa.Instr.Nop)

let test_observable_equality () =
  let s1 = Full.create () and s2 = Full.create () in
  check "fresh equal" true (Full.equal_observable s1 s2);
  Full.set_mem s1 10 1;
  check "diverged" false (Full.equal_observable s1 s2);
  check "diff located" true
    (Full.diff_observable s1 s2 = [ (Cell.mem 10, 1, 0) ]);
  Full.set_mem s2 10 1;
  check "converged" true (Full.equal_observable s1 s2);
  (* explicit 0 vs untouched: still equal *)
  Full.set_mem s1 20 0;
  check "explicit zero" true (Full.equal_observable s1 s2)

let test_snapshot () =
  let s = Full.create () in
  Full.set_pc s 4;
  Full.set_mem s 8 88;
  let snap = Full.snapshot s in
  check "snap pc" true (Fragment.pc snap = Some 4);
  check "snap mem" true (Fragment.find_opt (Cell.mem 8) snap = Some 88);
  check "snap has all regs" true (Fragment.cardinal snap >= 32)

(* --- COW aliasing: the paged image must behave exactly like a deep
   copy, whichever side of a copy is written first --- *)

let test_cow_aliasing () =
  let s = Full.create () in
  Full.set_mem s 100 1;
  Full.set_mem s 5000 2 (* a second page *);
  let c = Full.copy s in
  (* write the ORIGINAL after copying: the copy must not see it *)
  Full.set_mem s 100 11;
  check_int "copy unaffected by original write" 1 (Full.get_mem c 100);
  (* write the COPY on the same page: the original must not see it *)
  Full.set_mem c 101 7;
  check_int "original unaffected by copy write" 0 (Full.get_mem s 101);
  check_int "copy sees own write" 7 (Full.get_mem c 101);
  (* pages never written after the copy stay shared and equal *)
  check_int "shared page via original" 2 (Full.get_mem s 5000);
  check_int "shared page via copy" 2 (Full.get_mem c 5000);
  (* a chain of copies: each layer isolated from the others *)
  let c2 = Full.copy c in
  Full.set_mem c2 100 99;
  check_int "grandchild isolated" 99 (Full.get_mem c2 100);
  check_int "child intact" 1 (Full.get_mem c 100);
  check_int "root intact" 11 (Full.get_mem s 100)

let test_cow_overflow_addresses () =
  (* addresses outside the paged span (negative, huge) live in a side
     table and must obey the same copy semantics *)
  let s = Full.create () in
  Full.set_mem s (-8) 3;
  Full.set_mem s max_int 4;
  let c = Full.copy s in
  Full.set_mem c (-8) 33;
  check_int "negative addr in copy" 33 (Full.get_mem c (-8));
  check_int "negative addr in original" 3 (Full.get_mem s (-8));
  check_int "huge addr survives copy" 4 (Full.get_mem c max_int);
  check "negative addr observable" true
    (Full.diff_observable s c = [ (Cell.mem (-8), 3, 33) ])

let test_written_zero_materializes () =
  (* writing 0 to untouched memory changes no value but must make the
     cell visible to snapshot (formal tests replay from snapshots), and
     the materialization must survive a copy *)
  let s = Full.create () in
  Full.set_mem s 40 0;
  let snap = Full.snapshot s in
  check "written zero in snapshot" true
    (Fragment.find_opt (Cell.mem 40) snap = Some 0);
  let c = Full.copy s in
  check "written zero survives copy" true
    (Fragment.find_opt (Cell.mem 40) (Full.snapshot c) = Some 0);
  (* ... while an address never written stays invisible *)
  check "untouched cell not in snapshot" true
    (Fragment.find_opt (Cell.mem 41) snap = None)

(* geometry of the paged image: 128 directory blocks of 128 pages of
   1024 words *)
let page_words = 1024
let dir_words = 128 * page_words
let paged_span = 128 * dir_words

let test_page_boundary_cow () =
  (* adjacent addresses on opposite sides of a page boundary: after a
     checkpoint copy, a write on one side privatizes only its own page —
     the word one address away stays on the still-shared neighbour *)
  let b = 3 * page_words in
  let s = Full.create () in
  Full.set_mem s (b - 1) 1;
  Full.set_mem s b 2;
  let c = Full.copy s in
  Full.set_mem c (b - 1) 5;
  check_int "copy's side of the boundary" 5 (Full.get_mem c (b - 1));
  check_int "copy still shares the next page" 2 (Full.get_mem c b);
  Full.set_mem s b 6;
  check_int "original privatized the other page" 6 (Full.get_mem s b);
  check_int "copy unaffected" 2 (Full.get_mem c b);
  check_int "original's first page intact" 1 (Full.get_mem s (b - 1));
  let diff =
    List.sort compare (Full.diff_observable s c)
  in
  check "exactly the two boundary cells differ" true
    (diff = [ (Cell.mem (b - 1), 1, 5); (Cell.mem b, 6, 2) ])

let test_directory_boundary_cow () =
  (* adjacent addresses in different directory blocks: after a copy, a
     store on one side privatizes only its own block and page; the block
     on the other side stays shared, also with a copy of the copy *)
  let b = dir_words in
  let s = Full.create () in
  Full.set_mem s (b - 1) 1;
  Full.set_mem s b 2;
  let c = Full.copy s in
  let cc = Full.copy c in
  Full.set_mem c (b - 1) 5;
  check_int "copy's side of the boundary" 5 (Full.get_mem c (b - 1));
  check_int "copy still shares the next block" 2 (Full.get_mem c b);
  check_int "original's block intact" 1 (Full.get_mem s (b - 1));
  check_int "copy of the copy intact" 1 (Full.get_mem cc (b - 1));
  Full.set_mem s b 6;
  Full.set_mem cc b 7;
  check_int "original privatized the other block" 6 (Full.get_mem s b);
  check_int "copy unaffected" 2 (Full.get_mem c b);
  check_int "copy of the copy sees its own store" 7 (Full.get_mem cc b);
  check "original vs copy" true
    (Full.diff_observable s c = [ (Cell.mem (b - 1), 1, 5); (Cell.mem b, 6, 2) ]);
  check "copy vs its copy" true
    (Full.diff_observable c cc = [ (Cell.mem (b - 1), 5, 1); (Cell.mem b, 2, 7) ]);
  List.iter
    (fun st -> check_int "two 4096-word regions live" 2 (Full.live_pages st))
    [ s; c; cc ];
  (* converging the values restores equality across the boundary *)
  Full.set_mem c (b - 1) 1;
  Full.set_mem c b 7;
  check "converged" true (Full.equal_observable c cc);
  check "still apart" false (Full.equal_observable s cc)

let test_full_allocation () =
  (* words allocated, minor plus major: the full majors flush pages
     allocated straight on the major heap into the counters *)
  let words f =
    let total () =
      Gc.full_major ();
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let w0 = total () in
    f ();
    total () -. w0
  in
  (* a footprint of 48 pages over six directory blocks *)
  let s = Full.create () in
  for k = 0 to 47 do
    Full.set_mem s ((k mod 6 * dir_words) + (k * page_words) + 3) k
  done;
  let bounded name bound f =
    let w = words f in
    check (Printf.sprintf "%s: %.0f words (bound %d)" name w bound) true
      (w <= float_of_int bound)
  in
  bounded "create" 300 (fun () -> ignore (Sys.opaque_identity (Full.create ())));
  bounded "copy" 300 (fun () -> ignore (Sys.opaque_identity (Full.copy s)));
  let c = Full.copy s in
  bounded "first store into a shared page" 1500 (fun () -> Full.set_mem c 4 1)

let test_span_edge_straddle () =
  (* a straddle across the END of the paged span: the last paged word
     and the first overflow-table word sit at adjacent addresses but are
     copied by different mechanisms (COW page vs. side table), and must
     still behave identically *)
  let last = paged_span - 1 in
  let s = Full.create () in
  Full.set_mem s last 10;
  Full.set_mem s paged_span 20;
  let c = Full.copy s in
  Full.set_mem c last 11;
  Full.set_mem c paged_span 21;
  check_int "last paged word, original" 10 (Full.get_mem s last);
  check_int "first overflow word, original" 20 (Full.get_mem s paged_span);
  check_int "last paged word, copy" 11 (Full.get_mem c last);
  check_int "first overflow word, copy" 21 (Full.get_mem c paged_span);
  let diff = List.sort compare (Full.diff_observable s c) in
  check "both straddle cells visible to diff" true
    (diff = [ (Cell.mem last, 10, 11); (Cell.mem paged_span, 20, 21) ]);
  (* converging the values restores observable equality through BOTH
     representations *)
  Full.set_mem s last 11;
  Full.set_mem s paged_span 21;
  check "converged states equal" true (Full.equal_observable s c)

(* --- differential check: the paged image against a one-entry-per-word
   hashtable state (the pre-paging layout), driven by the real executor
   over random programs — the two must be observably identical at every
   step and at the end --- *)

module Ref_state = struct
  type t = { mutable pc : int; regs : int array; mem : (int, int) Hashtbl.t }

  let create () =
    { pc = 0; regs = Array.make Reg.count 0; mem = Hashtbl.create 64 }

  let get s = function
    | Cell.Pc -> s.pc
    | Cell.Reg r -> s.regs.(Reg.to_int r)
    | Cell.Mem a -> ( match Hashtbl.find_opt s.mem a with Some v -> v | None -> 0)

  let set s c v =
    match c with
    | Cell.Pc -> s.pc <- v
    | Cell.Reg r -> if not (Reg.equal r Reg.zero) then s.regs.(Reg.to_int r) <- v
    | Cell.Mem a -> Hashtbl.replace s.mem a v

  let load s (p : Mssp_isa.Program.t) =
    (* mirror Full.load: code image, data image, pc, stack pointer *)
    Array.iteri
      (fun i instr -> set s (Cell.mem (p.base + i)) (Mssp_isa.Instr.encode instr))
      p.code;
    List.iter (fun (a, v) -> set s (Cell.mem a) v) p.data;
    s.pc <- p.entry;
    s.regs.(Reg.to_int Reg.sp) <- Mssp_isa.Layout.stack_base;
    s.regs.(Reg.to_int Reg.gp) <- Mssp_isa.Layout.data_base

  let copy s = { pc = s.pc; regs = Array.copy s.regs; mem = Hashtbl.copy s.mem }

  let snapshot s =
    let f =
      Hashtbl.fold (fun a v f -> Fragment.add (Cell.mem a) v f) s.mem
        (Fragment.singleton Cell.Pc s.pc)
    in
    List.fold_left
      (fun f r ->
        match Cell.reg r with Some c -> Fragment.add c (get s c) f | None -> f)
      f Reg.all

  (* cells on which the two states differ, in cell order *)
  let diff s1 s2 =
    let cells =
      Cell.Pc
      :: List.filter_map Cell.reg Reg.all
      @ List.map Cell.mem
          (List.of_seq (Hashtbl.to_seq_keys s1.mem)
          @ List.of_seq (Hashtbl.to_seq_keys s2.mem))
    in
    List.filter_map
      (fun c ->
        let v1 = get s1 c and v2 = get s2 c in
        if v1 <> v2 then Some (c, v1, v2) else None)
      (List.sort_uniq Cell.compare cells)

  (* aligned 4096-word regions of the paged span holding a written word *)
  let live_pages s =
    Hashtbl.fold
      (fun a _ l -> if a >= 0 && a < paged_span then (a / 4096) :: l else l)
      s.mem []
    |> List.sort_uniq compare |> List.length
end

(* addresses on both sides of page, directory-block and span edges *)
let probe_addrs =
  [| 0; page_words - 1; page_words; dir_words - 1; dir_words; dir_words + 5;
     (3 * dir_words) + 7; (127 * dir_words) - 1; paged_span - 1; paged_span;
     -3; Mssp_isa.Layout.data_base; Mssp_isa.Layout.data_base + 1 |]

(* small values, and the extremes a page's 64-bit slots must carry
   back exactly *)
let stored_values =
  QCheck.frequency
    [ (3, QCheck.int_bound 3); (1, QCheck.oneofl [ min_int; max_int; -1; 1 lsl 61 ]) ]

(* The property runs a random program on a state, then a random mix of
   copies (of any state so far, copies of copies included) and stores
   on the probe addresses, then runs the program on the last copy. Every
   state must match its reference, and every pair of states (most share
   directory blocks) must compare, diff, count live regions and
   snapshot as their references do. *)
let prop_paged_matches_hashtbl_reference =
  QCheck.Test.make
    ~name:"paged Full = hashtable reference under random execution" ~count:50
    QCheck.(
      triple small_nat (int_range 1 200)
        (small_list
           (quad (int_bound 3) (int_bound 7)
              (int_bound (Array.length probe_addrs - 1))
              stored_values)))
    (fun (seed, fuel, ops) ->
      let p = Mssp_fuzz.Gen.generate ~weights:Mssp_fuzz.Gen.plain ~seed ~size:8 () in
      let full = Full.create () in
      Full.load full p;
      let r = Ref_state.create () in
      Ref_state.load r p;
      let run (full, r) =
        let step_full () =
          Mssp_seq.Exec.step
            ~read:(fun c -> Some (Full.get full c))
            ~write:(fun c v -> Full.set full c v)
        in
        let step_ref () =
          Mssp_seq.Exec.step
            ~read:(fun c -> Some (Ref_state.get r c))
            ~write:(fun c v -> Ref_state.set r c v)
        in
        let rec go n =
          if n = 0 then true
          else
            let of_ = step_full () and or_ = step_ref () in
            if of_ <> or_ then false
            else
              match of_ with
              | Mssp_seq.Exec.Stepped -> go (n - 1)
              | _ -> true
        in
        go fuel
      in
      let first_run = run (full, r) in
      let states = ref [| (full, r) |] in
      List.iter
        (fun (kind, k, a, v) ->
          let n = Array.length !states in
          let f, rf = !states.(k mod n) in
          if kind = 0 then
            states := Array.append !states [| (Full.copy f, Ref_state.copy rf) |]
          else begin
            Full.set_mem f probe_addrs.(a) v;
            Ref_state.set rf (Cell.mem probe_addrs.(a)) v
          end)
        ops;
      let states = !states in
      let last_run = run states.(Array.length states - 1) in
      (* each state observably identical to its reference: pc, every
         register, every address either side ever materialized *)
      let matches (full, r) =
        let regs_ok =
          List.for_all
            (fun i ->
              let reg = Reg.of_int i in
              Full.get_reg full reg = r.Ref_state.regs.(i))
            (List.init Reg.count Fun.id)
        in
        let mem_ok =
          Hashtbl.fold
            (fun a v ok -> ok && Full.get_mem full a = v)
            r.Ref_state.mem true
          && Fragment.to_list (Full.snapshot full)
             |> List.for_all (fun (c, v) ->
                    match c with
                    | Cell.Mem _ -> Ref_state.get r c = v
                    | _ -> true)
        in
        Full.pc full = r.Ref_state.pc && regs_ok && mem_ok
        && Fragment.equal (Full.snapshot full) (Ref_state.snapshot r)
        && Full.live_pages full = Ref_state.live_pages r
      in
      let pair_ok (f1, r1) (f2, r2) =
        let diff = Ref_state.diff r1 r2 in
        Full.diff_observable f1 f2 = diff
        && Full.equal_observable f1 f2 = (diff = [])
      in
      first_run && last_run
      && Array.for_all matches states
      && Array.for_all (fun a -> Array.for_all (pair_ok a) states) states)

(* --- Live_in --- *)

(* A checkpoint live-in and the fragment it binds are one partial state:
   each converts to the other and back unchanged, and the live-in's
   count, lookups, cell-order walk and update agree with the
   fragment's. Two shapes: arbitrary fragments (any mask, memory or
   none) and the PC-only checkpoint of a control-only master. *)

let probe_cells =
  Cell.Pc
  :: List.init 31 (fun i -> Cell.Reg (Reg.of_int (i + 1)))
  @ List.init 14 (fun a -> Cell.mem (a - 1))

let agrees li f =
  let walk fold x = List.rev (fold (fun c v l -> (c, v) :: l) x []) in
  Fragment.equal (Live_in.to_fragment li) f
  && Live_in.equal (Live_in.of_fragment f) li
  && Live_in.cardinal li = Fragment.cardinal f
  && walk Live_in.fold li = walk Fragment.fold f
  && List.for_all (fun c -> Live_in.find_opt c li = Fragment.find_opt c f)
       probe_cells

let prop_live_in_round_trip =
  QCheck.Test.make ~name:"live-in = fragment: round trip, count, order, add"
    ~count:1000
    QCheck.(
      triple arbitrary_fragment
        (int_bound (List.length probe_cells - 1))
        small_int)
    (fun (f, k, v) ->
      let li = Live_in.of_fragment f in
      let c = List.nth probe_cells k in
      agrees li f
      && agrees (Live_in.add c v li) (Fragment.add c v f)
      (* [add] leaves its argument alone *)
      && agrees li f)

let prop_live_in_checkpoints =
  QCheck.Test.make ~name:"live-in = fragment: PC-only checkpoint" ~count:50
    QCheck.small_int
    (fun pc -> agrees (Live_in.of_pc pc) (Fragment.singleton Cell.Pc pc))

(* --- Dirty: the master's write layers --- *)

(* A model test of the layers against the persistent representation
   they replace: the master's writes since its seed as one [Fragment],
   snapshotted at every seal. Random sequences of stores (negative
   addresses included), seals (a fork: a new live view), retirements
   (the oldest view commits and the layers under the next one fold),
   resets (a reseed kills every view), overlay [add]s on a live view and
   fragment reads (which build and advance the mirror). After every step
   each live view's [find_mem], [find_opt] and [cardinal], and on a
   fragment read its [to_fragment] and [freeze], equal the snapshot. *)

type dirty_op =
  | Store of int * int
  | Seal
  | Retire
  | Reset
  | Add of int * int * int
  | Frags

let show_dirty_op = function
  | Store (a, v) -> Printf.sprintf "store %d %d" a v
  | Seal -> "seal"
  | Retire -> "retire"
  | Reset -> "reset"
  | Add (k, a, v) -> Printf.sprintf "add #%d %d %d" k a v
  | Frags -> "frags"

let dirty_addrs = List.init 30 (fun i -> i - 8)

let arbitrary_dirty_ops =
  let open QCheck.Gen in
  let addr = int_range (-8) 21 in
  let op =
    frequency
      [
        (8, map2 (fun a v -> Store (a, v)) addr small_int);
        (3, return Seal);
        (2, return Retire);
        (1, return Reset);
        (1, map3 (fun k a v -> Add (k, a, v)) small_nat addr small_int);
        (1, return Frags);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_dirty_op ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 1 80) op)

let mem_part f = Fragment.filter (fun c _ -> Cell.is_mem c) f

(* [li] binds the registers of a fresh state, the PC and [snap] *)
let view_agrees ~frags (li, snap) =
  let finds =
    List.for_all
      (fun a ->
        let c = Cell.mem a in
        Live_in.find_mem a li ~default:min_int
        = Option.value ~default:min_int (Fragment.find_opt c snap)
        && Live_in.find_opt c li = Fragment.find_opt c snap)
      dirty_addrs
  in
  let frag li = Fragment.equal (mem_part (Live_in.to_fragment li)) snap in
  finds
  && Live_in.cardinal li = Reg.count + Fragment.cardinal snap
  && ((not frags)
     || frag li
        && frag (Live_in.freeze li)
        && Live_in.equal (Live_in.freeze li) li)

let prop_dirty_model =
  QCheck.Test.make ~name:"dirty layers = a fragment snapshot per seal"
    ~count:500 arbitrary_dirty_ops (fun ops ->
      let full = Full.create () in
      let d = Dirty.create () in
      (* the model: writes since the reset; the live views, oldest first *)
      let writes = ref Fragment.empty and views = ref [] in
      let step op =
        match op with
        | Store (a, v) ->
          Dirty.store d a v;
          writes := Fragment.add (Cell.mem a) v !writes
        | Seal ->
          views := !views @ [ (Live_in.checkpoint ~pc:0 full d, !writes) ]
        | Retire -> (
          match !views with
          | [] -> ()
          | _ :: rest ->
            views := rest;
            Dirty.fold d
              ~upto:
                (match rest with
                | (li, _) :: _ -> li.Live_in.level
                | [] -> max_int))
        | Reset ->
          Dirty.reset d;
          writes := Fragment.empty;
          views := []
        | Add (k, a, v) -> (
          match !views with
          | [] -> ()
          | l ->
            let k = k mod List.length l in
            views :=
              List.mapi
                (fun i ((li, snap) as view) ->
                  if i <> k then view
                  else
                    ( Live_in.add (Cell.mem a) v li,
                      Fragment.add (Cell.mem a) v snap ))
                l)
        | Frags -> ()
      in
      List.for_all
        (fun op ->
          step op;
          List.for_all (view_agrees ~frags:(op = Frags)) !views)
        ops)

(* a view older than a folded layer is stale: reading it raises rather
   than return a newer write *)
let test_dirty_stale_view () =
  let full = Full.create () and d = Dirty.create () in
  Dirty.store d 5 1;
  let old = Live_in.checkpoint ~pc:0 full d in
  Dirty.store d 5 2;
  let young = Live_in.checkpoint ~pc:0 full d in
  check "old view" true (Live_in.find_mem 5 old ~default:0 = 1);
  Dirty.fold d ~upto:young.Live_in.level;
  check "young view after the fold" true
    (Live_in.find_mem 5 young ~default:0 = 2);
  check "old view is stale" true
    (match Live_in.find_mem 5 old ~default:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Dirty.reset d;
  check "reset kills every view" true
    (match Live_in.find_mem 5 young ~default:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "state"
    [
      ("cell", [ Alcotest.test_case "ordering" `Quick test_cell_order ]);
      ( "fragment",
        [
          Alcotest.test_case "basics" `Quick test_fragment_basics;
          Alcotest.test_case "superimpose" `Quick test_superimpose_semantics;
          Alcotest.test_case "consistent" `Quick test_consistent;
          Mssp_testkit.to_alcotest prop_superimpose_assoc;
          Mssp_testkit.to_alcotest prop_containment;
          Mssp_testkit.to_alcotest prop_idempotency;
          Mssp_testkit.to_alcotest prop_consistent_partial_order;
        ] );
      ( "full",
        [
          Alcotest.test_case "defaults" `Quick test_full_defaults;
          Alcotest.test_case "zero register" `Quick test_full_zero_reg;
          Alcotest.test_case "copy isolation" `Quick test_full_copy_isolated;
          Alcotest.test_case "load" `Quick test_full_load;
          Alcotest.test_case "observable equality" `Quick test_observable_equality;
          Alcotest.test_case "snapshot" `Quick test_snapshot;
          Alcotest.test_case "COW aliasing" `Quick test_cow_aliasing;
          Alcotest.test_case "COW overflow addresses" `Quick
            test_cow_overflow_addresses;
          Alcotest.test_case "written zero materializes" `Quick
            test_written_zero_materializes;
          Alcotest.test_case "page-boundary COW" `Quick test_page_boundary_cow;
          Alcotest.test_case "directory-boundary COW" `Quick
            test_directory_boundary_cow;
          Alcotest.test_case "allocation" `Quick test_full_allocation;
          Alcotest.test_case "span-edge straddle" `Quick
            test_span_edge_straddle;
          Mssp_testkit.to_alcotest prop_paged_matches_hashtbl_reference;
        ] );
      ( "live-in",
        [
          Mssp_testkit.to_alcotest prop_live_in_round_trip;
          Mssp_testkit.to_alcotest prop_live_in_checkpoints;
        ] );
      ( "dirty",
        [
          Mssp_testkit.to_alcotest prop_dirty_model;
          Alcotest.test_case "stale views raise" `Quick test_dirty_stale_view;
        ] );
    ]
