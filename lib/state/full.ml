module Reg = Mssp_isa.Reg
module Layout = Mssp_isa.Layout

(* Memory is a paged image: a fixed table of [table_pages] slots, each
   holding a page of [page_words] unboxed ints. Loads and stores are two
   array indexations — no hashing, no boxing. Pages are shared
   copy-on-write between states: [copy] duplicates only the page table
   and bumps per-page refcounts; the first store through either state
   privatizes just the page it touches. Addresses outside the paged
   range (negative, or beyond [table_pages * page_words]) fall back to a
   per-word hashtable so memory stays total over all of [int].

   Each page also carries a written-word bitmap so [snapshot] and [pp]
   can still enumerate exactly the cells that were explicitly stored
   (including stores of 0) — the same "materialized" set the previous
   hashtable representation tracked. *)

let page_bits = 12
let page_words = 1 lsl page_bits
let page_idx_mask = page_words - 1
let table_pages = 4096 (* paged span: 16M words, covers Layout up to io_limit *)
let mask_words = page_words / 32

type page = { data : int array; mask : int array; mutable rc : int }

(* The shared all-zeros page every table slot starts at. Its huge
   refcount makes any store take the privatize path, so it is never
   mutated; reads through it see memory's default 0. *)
let empty_page =
  { data = Array.make page_words 0; mask = Array.make mask_words 0; rc = max_int }

type t = {
  mutable pc : int;
  regs : int array;
  mutable pages : page array;
  overflow : (int, int) Hashtbl.t;
}

let create () =
  {
    pc = 0;
    regs = Array.make Reg.count 0;
    pages = Array.make table_pages empty_page;
    overflow = Hashtbl.create 16;
  }

let copy s =
  let pages = Array.copy s.pages in
  for i = 0 to table_pages - 1 do
    let pg = Array.unsafe_get pages i in
    if pg != empty_page then pg.rc <- pg.rc + 1
  done;
  { pc = s.pc; regs = Array.copy s.regs; pages; overflow = Hashtbl.copy s.overflow }

let[@inline] pc s = s.pc
let[@inline] set_pc s v = s.pc <- v

(* [Reg.t] is [private int]; comparing the coercion compiles to one
   integer test, where [Reg.equal] (an alias of [Int.equal]) would cost
   an indirect call on the interpreter's hottest path *)
let[@inline] get_reg s r =
  if (r : Reg.t :> int) = 0 then 0 else s.regs.((r :> int))

let[@inline] set_reg s r v =
  if (r : Reg.t :> int) <> 0 then s.regs.((r :> int)) <- v

let copy_regs s = Array.copy s.regs

let get_mem s a =
  (* [lsr] sends negative addresses far past [table_pages], so one
     unsigned bound check routes them to the overflow table *)
  let p = a lsr page_bits in
  if p < table_pages then
    Array.unsafe_get (Array.unsafe_get s.pages p).data (a land page_idx_mask)
  else match Hashtbl.find_opt s.overflow a with Some v -> v | None -> 0

(* Replace a shared page with a private clone before writing into it. *)
let privatize s p pg =
  let fresh = { data = Array.copy pg.data; mask = Array.copy pg.mask; rc = 1 } in
  if pg != empty_page then pg.rc <- pg.rc - 1;
  s.pages.(p) <- fresh;
  fresh

let set_mem s a v =
  let p = a lsr page_bits in
  if p < table_pages then begin
    let pg = Array.unsafe_get s.pages p in
    let pg = if pg.rc > 1 then privatize s p pg else pg in
    let i = a land page_idx_mask in
    Array.unsafe_set pg.data i v;
    let m = i lsr 5 in
    Array.unsafe_set pg.mask m (Array.unsafe_get pg.mask m lor (1 lsl (i land 31)))
  end
  else Hashtbl.replace s.overflow a v

let get s = function
  | Cell.Pc -> s.pc
  | Cell.Reg r -> get_reg s r
  | Cell.Mem a -> get_mem s a

let set s cell v =
  match cell with
  | Cell.Pc -> s.pc <- v
  | Cell.Reg r -> set_reg s r v
  | Cell.Mem a -> set_mem s a v

let load ?(set_entry = true) s (p : Mssp_isa.Program.t) =
  Array.iteri
    (fun i instr -> set_mem s (p.base + i) (Mssp_isa.Instr.encode instr))
    p.code;
  List.iter (fun (a, v) -> set_mem s a v) p.data;
  set_reg s Reg.sp Layout.stack_base;
  set_reg s Reg.gp Layout.data_base;
  if set_entry then s.pc <- p.entry

(* Visit every explicitly written memory word (address, current value). *)
let iter_materialized f s =
  for p = 0 to table_pages - 1 do
    let pg = Array.unsafe_get s.pages p in
    if pg != empty_page then
      for m = 0 to mask_words - 1 do
        let bits = Array.unsafe_get pg.mask m in
        if bits <> 0 then
          for b = 0 to 31 do
            if bits land (1 lsl b) <> 0 then
              let i = (m lsl 5) lor b in
              f ((p lsl page_bits) lor i) (Array.unsafe_get pg.data i)
          done
      done
  done;
  Hashtbl.iter f s.overflow

let materialized_cells s =
  let n = ref 0 in
  iter_materialized (fun _ _ -> incr n) s;
  !n

let live_pages s =
  let n = ref 0 in
  for p = 0 to table_pages - 1 do
    if Array.unsafe_get s.pages p != empty_page then incr n
  done;
  !n

let overflow_words s = Hashtbl.length s.overflow

let snapshot_mem s =
  let f = ref Fragment.empty in
  iter_materialized (fun a v -> f := Fragment.add (Cell.mem a) v !f) s;
  !f

let snapshot s =
  List.fold_left
    (fun f r ->
      match Cell.reg r with
      | Some c -> Fragment.add c (get_reg s r) f
      | None -> f)
    (Fragment.add Cell.Pc s.pc (snapshot_mem s))
    Reg.all

let diff_observable s1 s2 =
  let diffs = ref [] in
  let check c =
    let v1 = get s1 c and v2 = get s2 c in
    if v1 <> v2 then diffs := (c, v1, v2) :: !diffs
  in
  check Cell.Pc;
  List.iter (fun r -> Option.iter check (Cell.reg r)) Reg.all;
  (* paged span: scan pairwise; physically shared pages cannot differ,
     and a differing word is necessarily materialized in one side (only
     stores make data nonzero), so plain word comparison finds exactly
     the observable differences *)
  for p = 0 to table_pages - 1 do
    let pg1 = Array.unsafe_get s1.pages p and pg2 = Array.unsafe_get s2.pages p in
    if pg1 != pg2 then
      for m = 0 to mask_words - 1 do
        if Array.unsafe_get pg1.mask m lor Array.unsafe_get pg2.mask m <> 0 then
          for b = 0 to 31 do
            let i = (m lsl 5) lor b in
            let v1 = Array.unsafe_get pg1.data i
            and v2 = Array.unsafe_get pg2.data i in
            if v1 <> v2 then
              diffs := (Cell.mem ((p lsl page_bits) lor i), v1, v2) :: !diffs
          done
      done
  done;
  let seen = Hashtbl.create 16 in
  let check_overflow a _ =
    if not (Hashtbl.mem seen a) then begin
      Hashtbl.add seen a ();
      check (Cell.mem a)
    end
  in
  Hashtbl.iter check_overflow s1.overflow;
  Hashtbl.iter check_overflow s2.overflow;
  List.sort (fun (c1, _, _) (c2, _, _) -> Cell.compare c1 c2) !diffs

let equal_observable s1 s2 =
  let pages_equal () =
    let ok = ref true in
    let p = ref 0 in
    while !ok && !p < table_pages do
      let pg1 = Array.unsafe_get s1.pages !p
      and pg2 = Array.unsafe_get s2.pages !p in
      if pg1 != pg2 then begin
        let m = ref 0 in
        while !ok && !m < mask_words do
          (* words outside both masks are 0 on both sides *)
          if Array.unsafe_get pg1.mask !m lor Array.unsafe_get pg2.mask !m <> 0
          then begin
            let base = !m lsl 5 in
            for b = 0 to 31 do
              if
                Array.unsafe_get pg1.data (base lor b)
                <> Array.unsafe_get pg2.data (base lor b)
              then ok := false
            done
          end;
          incr m
        done
      end;
      incr p
    done;
    !ok
  in
  let overflow_sub o other =
    Hashtbl.fold (fun a v ok -> ok && get_mem other a = v) o true
  in
  s1.pc = s2.pc
  && s1.regs = s2.regs
  && pages_equal ()
  && overflow_sub s1.overflow s2
  && overflow_sub s2.overflow s1

let pp fmt s =
  Format.fprintf fmt "@[<v>pc=%#x@," s.pc;
  List.iter
    (fun r ->
      let v = get_reg s r in
      if v <> 0 then Format.fprintf fmt "%s=%d@," (Reg.name r) v)
    Reg.all;
  Format.fprintf fmt "mem: %d cells materialized@]" (materialized_cells s)
