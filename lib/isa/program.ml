type t = {
  base : int;
  code : Instr.t array;
  entry : int;
  data : (int * int) list;
  symbols : (string * int) list;
}

let make ?(base = Layout.code_base) ?entry ?(data = []) ?(symbols = []) code =
  let entry = match entry with Some e -> e | None -> base in
  { base; code; entry; data; symbols }

let length p = Array.length p.code
let limit p = p.base + length p
let in_code p addr = addr >= p.base && addr < limit p

let instr_at p addr =
  if in_code p addr then Some p.code.(addr - p.base) else None

let symbol p name = List.assoc name p.symbols

(* Pre-decoded image: the per-program decode cache. Both arrays are
   indexed by [pc - base]; [words] holds the encodings the loader wrote
   into memory, so a fetched word can be validated against the image
   with one compare before the pre-decoded instruction is reused. *)
type image = {
  i_base : int;
  i_words : int array;
  i_instrs : Instr.t option array;
}

let decode_all p =
  {
    i_base = p.base;
    i_words = Array.map Instr.encode p.code;
    i_instrs = Array.map Option.some p.code;
  }

(* [pc - img.i_base] is [i], inside the image, and the image's word
   there is the fetched one *)
let[@inline] matches img i word =
  i >= 0 && i < Array.length img.i_words && Array.unsafe_get img.i_words i = word

let image_decode img ~pc ~word =
  let i = pc - img.i_base in
  if matches img i word then Array.unsafe_get img.i_instrs i
  else Instr.decode_cached word

(* one closure per image, each falling through to the next; two images
   (the machine's distilled and original programs) are one closure *)
let rec image_decoder = function
  | [] -> fun ~pc:_ ~word -> Instr.decode_cached word
  | [ img ] -> fun ~pc ~word -> image_decode img ~pc ~word
  | [ a; b ] ->
    fun ~pc ~word ->
      let i = pc - a.i_base in
      if matches a i word then Array.unsafe_get a.i_instrs i
      else image_decode b ~pc ~word
  | img :: rest ->
    let next = image_decoder rest in
    fun ~pc ~word ->
      let i = pc - img.i_base in
      if matches img i word then Array.unsafe_get img.i_instrs i
      else next ~pc ~word

let pp fmt p =
  let label_of = Hashtbl.create 16 in
  List.iter (fun (name, addr) -> Hashtbl.replace label_of addr name) p.symbols;
  Format.fprintf fmt "@[<v>entry: %#x@,@," p.entry;
  Array.iteri
    (fun i instr ->
      let addr = p.base + i in
      (match Hashtbl.find_opt label_of addr with
      | Some name -> Format.fprintf fmt "%s:@," name
      | None -> ());
      Format.fprintf fmt "  %#6x: %a@," addr Instr.pp instr)
    p.code;
  Format.fprintf fmt "@]"
