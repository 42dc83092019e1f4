module Reg = Mssp_isa.Reg
module Layout = Mssp_isa.Layout

(* Memory is a paged image behind a two-level table. The state's top
   level holds [top_slots] directory blocks; each directory holds
   [dir_slots] pages of [page_words] words, so the paged span is
   [top_slots * dir_slots * page_words] = 2^24 words, covering Layout up
   to io_limit. A load is three array indexations from the state — no
   hashing, no boxing. Addresses outside the span (negative, or beyond
   it) fall back to a per-word hashtable so memory stays total over all
   of [int].

   Directories and pages are shared copy-on-write: [copy] duplicates
   only the top level and bumps the refcount of each directory it
   shares; the first store through a shared directory privatizes that
   directory (bumping its pages' refcounts), and the first store into a
   shared page privatizes just that page. A page's refcount counts the
   directories that hold it, a directory's the top levels. States that
   are dropped never decrement, so a refcount can overstate sharing and
   cost a spare copy, never a lost write.

   A page is one [Bytes.t] of 64-bit slots, read and written through
   the unboxed 64-bit bytes primitives, so an [int] goes in and comes
   back exactly: [page_words] data slots, then a written-word bitmap of
   [mask_words] slots (32 bits each), then its refcount at [rc_slot].
   The GC neither initializes nor scans a bytes block, so privatizing a
   page is one [Bytes.copy], a single memcpy straight into the major
   heap (the block is larger than the minor heap's limit) with no
   per-word barrier. The bitmap lets [snapshot] and [pp] enumerate
   exactly the cells that were explicitly stored (including stores of
   0). A directory is a [page array] of [dir_slots] pages followed by
   one 1-slot page holding its refcount, so a load goes top level →
   directory → page with no record in between.

   The shared empty page and empty directory, which every slot starts
   at, carry a refcount of [max_int]: any store through them takes the
   privatize path, so they are never written. The scans skip empty and
   physically shared blocks, so they cost O(top level + pages live or
   differing). *)

let page_bits = 10
let page_words = 1 lsl page_bits
let page_idx_mask = page_words - 1
let mask_words = page_words / 32
let rc_slot = page_words + mask_words
let dir_bits = 7
let dir_slots = 1 lsl dir_bits
let dir_idx_mask = dir_slots - 1
let top_shift = page_bits + dir_bits
let top_slots = 128

(* [live_pages] counts 4096-word regions, the page size of the flat
   table this one replaced, so the trace counter built on it keeps its
   value *)
let region_pages = 4096 / page_words

type page = Bytes.t
type dir = page array

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* slot [i] of a page; every index used is below [rc_slot + 1] *)
let[@inline] slot (pg : page) i = Int64.to_int (get64 pg (i lsl 3))
let[@inline] set_slot (pg : page) i v = set64 pg (i lsl 3) (Int64.of_int v)

let make_page slots rc =
  let pg = Bytes.make (slots lsl 3) '\000' in
  set_slot pg (slots - 1) rc;
  pg

let empty_page : page = make_page (rc_slot + 1) max_int

let empty_dir : dir =
  let d = Array.make (dir_slots + 1) empty_page in
  d.(dir_slots) <- make_page 1 max_int;
  d

let[@inline] dir_rc (d : dir) = slot (Array.unsafe_get d dir_slots) 0
let[@inline] set_dir_rc (d : dir) v = set_slot (Array.unsafe_get d dir_slots) 0 v

type t = {
  mutable pc : int;
  regs : int array;
  top : dir array;
  overflow : (int, int) Hashtbl.t;
}

let create () =
  {
    pc = 0;
    regs = Array.make Reg.count 0;
    top = Array.make top_slots empty_dir;
    overflow = Hashtbl.create 16;
  }

let copy s =
  let top = Array.copy s.top in
  for t = 0 to top_slots - 1 do
    let d = Array.unsafe_get top t in
    if d != empty_dir then set_dir_rc d (dir_rc d + 1)
  done;
  { pc = s.pc; regs = Array.copy s.regs; top; overflow = Hashtbl.copy s.overflow }

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

let overflow_get s a =
  match Hashtbl.find_opt s.overflow a with Some v -> v | None -> 0

let[@inline] get_mem s a =
  (* [lsr] sends negative addresses far past [top_slots], so one
     unsigned bound check routes them to the overflow table *)
  let t = a lsr top_shift in
  if t < top_slots then
    let d = Array.unsafe_get s.top t in
    slot
      (Array.unsafe_get d ((a lsr page_bits) land dir_idx_mask))
      (a land page_idx_mask)
  else overflow_get s a

(* Replace a shared directory with a private clone before writing
   through it: its pages gain a holder. *)
let privatize_dir s t d =
  let fresh = Array.copy d in
  Array.unsafe_set fresh dir_slots (make_page 1 1);
  for j = 0 to dir_slots - 1 do
    let pg = Array.unsafe_get fresh j in
    if pg != empty_page then set_slot pg rc_slot (slot pg rc_slot + 1)
  done;
  if d != empty_dir then set_dir_rc d (dir_rc d - 1);
  Array.unsafe_set s.top t fresh;
  fresh

(* Replace a shared page with a private clone before writing into it. *)
let privatize_page d j pg =
  let fresh = Bytes.copy pg in
  set_slot fresh rc_slot 1;
  if pg != empty_page then set_slot pg rc_slot (slot pg rc_slot - 1);
  Array.unsafe_set d j fresh;
  fresh

let set_mem s a v =
  let t = a lsr top_shift in
  if t < top_slots then begin
    let d = Array.unsafe_get s.top t in
    let d = if dir_rc d > 1 then privatize_dir s t d else d in
    let j = (a lsr page_bits) land dir_idx_mask in
    let pg = Array.unsafe_get d j in
    let pg = if slot pg rc_slot > 1 then privatize_page d j pg else pg in
    let i = a land page_idx_mask in
    set_slot pg i v;
    let m = page_words + (i lsr 5) in
    set_slot pg m (slot pg m lor (1 lsl (i land 31)))
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

(* Visit every explicitly written memory word (address, current value),
   paged words in address order, then the overflow table. *)
let iter_materialized f s =
  for t = 0 to top_slots - 1 do
    let d = Array.unsafe_get s.top t in
    if d != empty_dir then
      for j = 0 to dir_slots - 1 do
        let pg = Array.unsafe_get d j in
        if pg != empty_page then
          let base = (t lsl top_shift) lor (j lsl page_bits) in
          for m = 0 to mask_words - 1 do
            let bits = slot pg (page_words + m) in
            if bits <> 0 then
              for b = 0 to 31 do
                if bits land (1 lsl b) <> 0 then
                  let i = (m lsl 5) lor b in
                  f (base lor i) (slot pg i)
              done
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
  for t = 0 to top_slots - 1 do
    let d = Array.unsafe_get s.top t in
    if d != empty_dir then
      for r = 0 to (dir_slots / region_pages) - 1 do
        let live = ref false in
        for k = 0 to region_pages - 1 do
          if Array.unsafe_get d ((r * region_pages) + k) != empty_page then
            live := true
        done;
        if !live then incr n
      done
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

(* Call [f base pg1 pg2] on every pair of pages at the same place in the
   paged span that are not physically shared, skipping shared
   directories: only such pages can hold differing words. *)
let iter_unshared_pages f s1 s2 =
  for t = 0 to top_slots - 1 do
    let d1 = Array.unsafe_get s1.top t and d2 = Array.unsafe_get s2.top t in
    if d1 != d2 then
      for j = 0 to dir_slots - 1 do
        let pg1 = Array.unsafe_get d1 j and pg2 = Array.unsafe_get d2 j in
        if pg1 != pg2 then f ((t lsl top_shift) lor (j lsl page_bits)) pg1 pg2
      done
  done

let diff_observable s1 s2 =
  let diffs = ref [] in
  let check c =
    let v1 = get s1 c and v2 = get s2 c in
    if v1 <> v2 then diffs := (c, v1, v2) :: !diffs
  in
  check Cell.Pc;
  List.iter (fun r -> Option.iter check (Cell.reg r)) Reg.all;
  (* a differing word is necessarily materialized in one side (only
     stores make data nonzero), so plain word comparison under either
     mask finds exactly the observable differences *)
  iter_unshared_pages
    (fun base pg1 pg2 ->
      for m = 0 to mask_words - 1 do
        let k = page_words + m in
        if slot pg1 k lor slot pg2 k <> 0 then
          for b = 0 to 31 do
            let i = (m lsl 5) lor b in
            let v1 = slot pg1 i and v2 = slot pg2 i in
            if v1 <> v2 then diffs := (Cell.mem (base lor i), v1, v2) :: !diffs
          done
      done)
    s1 s2;
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
    match
      iter_unshared_pages
        (fun _ pg1 pg2 ->
          for m = 0 to mask_words - 1 do
            let k = page_words + m in
            (* words outside both masks are 0 on both sides *)
            if slot pg1 k lor slot pg2 k <> 0 then begin
              let base = m lsl 5 in
              for b = 0 to 31 do
                if slot pg1 (base lor b) <> slot pg2 (base lor b) then
                  raise_notrace Exit
              done
            end
          done)
        s1 s2
    with
    | () -> true
    | exception Exit -> false
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
