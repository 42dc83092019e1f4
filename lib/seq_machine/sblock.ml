module Instr = Mssp_isa.Instr

(* Pages group cached blocks for store invalidation: a store probes the
   page range first, then only the blocks on its page. *)
let page_bits = 12

(* Longest straight-line region we pre-decode in one piece. A truncated
   block simply falls through to the next dispatch, so the cap bounds
   build cost without changing semantics. *)
let block_cap = 1024

(* The slave block cache. A task body fetches through a journal stack
   (write buffer -> live-in -> architected view), not through a
   [Full.t], and its first-reads must be staged for verification; the
   cache is parameterized over the owner's fetch resolution. A cache
   outlives any one task run (the machine keeps one per slave, so
   consecutive tasks re-dispatch warm blocks instead of rebuilding
   them); what is per-run is the staging state: blocks remember each
   fetched word and whether it is a first-read candidate ([s_live]),
   plus a recorded prefix ([s_covered]) stamped with the run generation
   ([s_cover_gen]) — a new run sees the watermark as empty without
   touching every cached block. *)
type block = {
  s_start : int;
  s_instrs : Instr.t array;
  s_words : int array;
  s_live : bool array;
  mutable s_covered : int;
  mutable s_cover_gen : int;
}

type t = {
  decode : pc:int -> word:int -> Instr.t option;
  cache : (int, block) Hashtbl.t;
  pages : (int, block list ref) Hashtbl.t;
  mutable lo : int;  (* page range holding cached blocks; *)
  mutable hi : int;  (* lo > hi when the cache is empty *)
  mutable gen : int;  (* current run generation, see [new_run] *)
}

let create ~decode () =
  {
    decode;
    cache = Hashtbl.create 16;
    pages = Hashtbl.create 8;
    lo = max_int;
    hi = min_int;
    gen = 0;
  }

let new_run t =
  t.gen <- t.gen + 1;
  t.gen

let clear t =
  Hashtbl.reset t.cache;
  Hashtbl.reset t.pages;
  t.lo <- max_int;
  t.hi <- min_int

let lookup t pc = Hashtbl.find_opt t.cache pc

let iter_pages f b =
  let last = ref min_int in
  let stop = b.s_start + Array.length b.s_instrs in
  let a = ref b.s_start in
  while !a < stop do
    let p = !a lsr page_bits in
    if p <> !last then begin
      f p;
      last := p
    end;
    incr a
  done

let register t b =
  Hashtbl.replace t.cache b.s_start b;
  iter_pages
    (fun p ->
      (match Hashtbl.find_opt t.pages p with
      | Some l -> l := b :: !l
      | None -> Hashtbl.add t.pages p (ref [ b ]));
      if p < t.lo then t.lo <- p;
      if p > t.hi then t.hi <- p)
    b

(* One range check per store on the miss path (the cache covers a few
   code pages; far data stores never get past it). A page hit is not
   yet a drop: [Dsl.alloc] places kernel data right after the code,
   so task-body stores routinely land on a page that also holds
   cached blocks — and a task body that re-dispatches its loop block
   on every trip would rebuild it on every trip if any same-page
   store dropped it. A block's captured words only go stale when the
   store lands {e inside its span}, so only spanning blocks are
   dropped (exact staleness, still conservative: the fetched word may
   be bound in the write buffer either way). [true] when anything was
   dropped — the executor must then leave the block it is inside. *)
let note_store t a =
  let p = a lsr page_bits in
  if p < t.lo || p > t.hi then false
  else
    match Hashtbl.find_opt t.pages p with
    | None -> false
    | Some l ->
      let stale =
        List.filter
          (fun b ->
            a >= b.s_start && a < b.s_start + Array.length b.s_instrs)
          !l
      in
      List.iter
        (fun b ->
          Hashtbl.remove t.cache b.s_start;
          iter_pages
            (fun q ->
              match Hashtbl.find_opt t.pages q with
              | None -> ()
              | Some l' ->
                l' := List.filter (fun b' -> b' != b) !l';
                if !l' = [] then Hashtbl.remove t.pages q)
            b)
        stale;
      stale <> []

(* Build the straight-line region entered at [pc] through the owner's
   [fetch]: [Some (word, live)] resolves an address ([live] marks a
   resolution outside the write buffer — a first-read candidate),
   [None] refuses it (the I/O region, or an unbound cell in isolated
   mode) and ends the region, as do undecodable words, transfers that
   cannot fall through, and the cap. Building performs no journal
   staging and no access-hook traffic: fetches are charged and staged
   at execution time, exactly as the single-step path does. *)
let build t ~fetch pc =
  let ibuf = Array.make block_cap Instr.Nop in
  let wbuf = Array.make block_cap 0 in
  let lbuf = Array.make block_cap false in
  let n = ref 0 in
  let scanning = ref true in
  while !scanning && !n < block_cap do
    let a = pc + !n in
    match fetch a with
    | None -> scanning := false
    | Some (word, live) -> (
      match t.decode ~pc:a ~word with
      | None -> scanning := false
      | Some i ->
        ibuf.(!n) <- i;
        wbuf.(!n) <- word;
        lbuf.(!n) <- live;
        incr n;
        (match i with
        | Instr.Jmp _ | Instr.Jal _ | Instr.Jr _ | Instr.Jalr _
        | Instr.Halt ->
          scanning := false
        | Instr.Alu _ | Instr.Alui _ | Instr.Li _ | Instr.Ld _
        | Instr.St _ | Instr.Br _ | Instr.Out _ | Instr.Fork _
        | Instr.Nop ->
          ()))
  done;
  if !n = 0 then None
  else begin
    let b =
      {
        s_start = pc;
        s_instrs = Array.sub ibuf 0 !n;
        s_words = Array.sub wbuf 0 !n;
        s_live = Array.sub lbuf 0 !n;
        s_covered = 0;
        s_cover_gen = t.gen;
      }
    in
    register t b;
    Some b
  end

let lookup_or_build t ~fetch pc =
  match lookup t pc with Some _ as r -> r | None -> build t ~fetch pc
