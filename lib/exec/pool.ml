(* OCaml caps live domains at a small fixed number (128 in 5.1); stay
   well under it *)
let max_helpers = 64

let map_runs ~jobs f items =
  if jobs <= 1 || List.compare_length_with items 2 < 0 then List.map f items
  else
    let items = Array.of_list items in
    let n = Array.length items in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* every domain, the caller included, claims the next unclaimed
       index until none is left; a raise is recorded, not propagated,
       so every domain keeps working and every helper can be joined *)
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          Some
            (try Ok (f items.(i))
             with e -> Error (e, Printexc.get_raw_backtrace ()));
        work ()
      end
    in
    let helpers =
      List.init (min (min jobs n) max_helpers) (fun _ -> Domain.spawn work)
    in
    work ();
    List.iter Domain.join helpers;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)
         results)
