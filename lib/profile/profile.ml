module Instr = Mssp_isa.Instr
module Program = Mssp_isa.Program
module Full = Mssp_state.Full
module Mem_log = Mssp_state.Mem_log
module Exec = Mssp_seq.Exec
module Machine = Mssp_seq.Machine

(* Every counter is an [int array] indexed by a PC's slot: [pc - base]
   for a PC inside the code image, else [len] plus the PC's position in
   [outside], a log of the PCs executed outside the image in first
   execution order. The arrays grow only when [outside] does. *)
type sites = {
  base : int;
  len : int;  (** the image's length: slots [0, len) are its PCs *)
  outside : Mem_log.t;  (** PCs executed outside the image, bound to 0 *)
  mutable counts : int array;  (** executions *)
  mutable taken : int array;  (** branch executions that jumped *)
  mutable not_taken : int array;  (** branch executions that fell through *)
  mutable stores : int array;  (** store executions *)
  mutable comm : int array;
      (** smallest store-to-load distance of a store site; [max_int]
          until a value it wrote is read back *)
}

type t = {
  dynamic_instructions : int;
  stop : Machine.stop option;
  sites : sites;
}

let create_sites (p : Program.t) =
  let len = Program.length p in
  let n = max 1 len in
  {
    base = p.Program.base;
    len;
    outside = Mem_log.create ~size:8 ();
    counts = Array.make n 0;
    taken = Array.make n 0;
    not_taken = Array.make n 0;
    stores = Array.make n 0;
    comm = Array.make n max_int;
  }

(* the slot of [pc]: -1 for a PC outside the image that never executed *)
let[@inline] find_slot s pc =
  let i = pc - s.base in
  if i >= 0 && i < s.len then i
  else
    let k = Mem_log.index s.outside pc in
    if k >= 0 then s.len + k else -1

let grow s =
  let extend a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  s.counts <- extend s.counts 0;
  s.taken <- extend s.taken 0;
  s.not_taken <- extend s.not_taken 0;
  s.stores <- extend s.stores 0;
  s.comm <- extend s.comm max_int

(* the slot of an executing [pc], handing one out on first execution
   outside the image *)
let slot s pc =
  let k = find_slot s pc in
  if k >= 0 then k
  else begin
    Mem_log.add s.outside pc 0;
    let k = s.len + Mem_log.count s.outside - 1 in
    if k >= Array.length s.counts then grow s;
    k
  end

(* The direct step, as [Machine.run] takes it: fetch through memory,
   decode through the image decoder, [Exec.exec]. Before the step the
   profiler reads a load's or store's effective address; after it, a
   branch's direction. The last store to each address is a binding in
   [last_site] (address -> the store's slot), with the dynamic index of
   the store at the same log position in [last_when]. Nothing here
   allocates per instruction once the tables have grown. *)
let collect ?(fuel = 100_000_000) p =
  let s = create_sites p in
  let st = Full.create () in
  Full.load st p;
  let decode = Program.image_decoder [ Program.decode_all p ] in
  let last_site = Mem_log.create ~size:1024 () in
  let last_when = ref (Array.make 1024 0) in
  let store_at addr site n =
    let k = Mem_log.index last_site addr in
    if k >= 0 then begin
      Mem_log.set_at last_site k site;
      Array.unsafe_set !last_when k n
    end
    else begin
      Mem_log.add last_site addr site;
      let k = Mem_log.count last_site - 1 in
      if k >= Array.length !last_when then begin
        let w = Array.make (2 * k) 0 in
        Array.blit !last_when 0 w 0 k;
        last_when := w
      end;
      Array.unsafe_set !last_when k n
    end
  in
  let load_at addr n =
    let k = Mem_log.index last_site addr in
    if k >= 0 then begin
      let site = Mem_log.get last_site k in
      let d = n - Array.unsafe_get !last_when k in
      if d < Array.unsafe_get s.comm site then Array.unsafe_set s.comm site d
    end
  in
  let rec go n =
    if n = fuel then (n, Machine.Out_of_fuel)
    else
      let pc = Full.pc st in
      let word = Full.get_mem st pc in
      match decode ~pc ~word with
      | None -> (n, Machine.Faulted (Exec.Undecodable { pc; word }))
      | Some Instr.Halt -> (n, Machine.Halted)
      | Some instr ->
        let addr =
          match instr with
          | Instr.Ld (_, rs1, off) | Instr.St (_, rs1, off) ->
            Full.get_reg st rs1 + off
          | Instr.Halt | Instr.Nop | Instr.Fork _ | Instr.Alu _ | Instr.Alui _
          | Instr.Li _ | Instr.Br _ | Instr.Jmp _ | Instr.Jal _ | Instr.Jr _
          | Instr.Jalr _ | Instr.Out _ ->
            0
        in
        Exec.exec st ~pc instr;
        let n = n + 1 in
        let k = slot s pc in
        Array.unsafe_set s.counts k (Array.unsafe_get s.counts k + 1);
        (match instr with
        | Instr.Br _ ->
          if Full.pc st <> pc + 1 then
            Array.unsafe_set s.taken k (Array.unsafe_get s.taken k + 1)
          else
            Array.unsafe_set s.not_taken k (Array.unsafe_get s.not_taken k + 1)
        | Instr.Ld _ -> load_at addr n
        | Instr.St _ ->
          Array.unsafe_set s.stores k (Array.unsafe_get s.stores k + 1);
          store_at addr k n
        | Instr.Halt | Instr.Nop | Instr.Fork _ | Instr.Alu _ | Instr.Alui _
        | Instr.Li _ | Instr.Jmp _ | Instr.Jal _ | Instr.Jr _ | Instr.Jalr _
        | Instr.Out _ ->
          ());
        go n
  in
  let dynamic_instructions, stop = go 0 in
  { dynamic_instructions; stop = Some stop; sites = s }

let exec_count t pc =
  let k = find_slot t.sites pc in
  if k < 0 then 0 else t.sites.counts.(k)

let branch_bias t pc =
  let k = find_slot t.sites pc in
  if k < 0 then None
  else
    let taken = t.sites.taken.(k) and not_taken = t.sites.not_taken.(k) in
    let total = taken + not_taken in
    if total = 0 then None
    else
      let dominant = taken >= not_taken in
      let freq = float_of_int (max taken not_taken) /. float_of_int total in
      Some (dominant, freq)

let store_comm_distance t pc =
  let k = find_slot t.sites pc in
  if k < 0 || t.sites.stores.(k) = 0 then None else Some t.sites.comm.(k)

let pp_summary fmt t =
  let s = t.sites in
  let count p =
    let n = ref 0 in
    for k = 0 to s.len + Mem_log.count s.outside - 1 do
      if p k then incr n
    done;
    !n
  in
  let branch k = s.taken.(k) + s.not_taken.(k) > 0 in
  let biased k =
    branch k
    && float_of_int (max s.taken.(k) s.not_taken.(k))
       /. float_of_int (s.taken.(k) + s.not_taken.(k))
       >= 0.95
  in
  Format.fprintf fmt
    "@[<v>dynamic instructions: %d@,static sites executed: %d@,branches: %d (%d with bias >= 0.95)@,stores profiled: %d@]"
    t.dynamic_instructions
    (count (fun k -> s.counts.(k) > 0))
    (count branch) (count biased)
    (count (fun k -> s.stores.(k) > 0))
