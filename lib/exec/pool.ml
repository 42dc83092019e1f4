(* One mutex + one condition guard everything: the job queue, worker
   lifecycle, and every future's state. Completions broadcast on the
   same condition workers sleep on — spurious wakeups are re-checked by
   both loops. Contention is negligible at the pool's grain (whole task
   bodies and whole simulations, microseconds to seconds per job). *)

type job = unit -> unit

type t = {
  m : Mutex.t;
  wakeup : Condition.t; (* new job queued, or a future resolved *)
  jobs : job Queue.t;
  mutable workers : unit Domain.t list;
  mutable closing : bool;
}

type 'a state =
  | Pending
  | Done of 'a
  | Raised of exn * Printexc.raw_backtrace

type 'a future = { pool : t; mutable st : 'a state }

(* OCaml caps live domains at a small fixed number (128 in 5.1); stay
   well under it so nested users can never exhaust the budget *)
let max_workers = 64

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let rec worker_loop t =
  let job =
    locked t (fun () ->
        let rec get () =
          if t.closing then None
          else
            match Queue.take_opt t.jobs with
            | Some j -> Some j
            | None ->
              Condition.wait t.wakeup t.m;
              get ()
        in
        get ())
  in
  match job with
  | None -> ()
  | Some j ->
    j ();
    worker_loop t

let spawn_workers t n =
  for _ = 1 to n do
    t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers
  done

let create ~size =
  let t =
    {
      m = Mutex.create ();
      wakeup = Condition.create ();
      jobs = Queue.create ();
      workers = [];
      closing = false;
    }
  in
  spawn_workers t (min (max 0 size) max_workers);
  t

let size t = locked t (fun () -> List.length t.workers)

let run_into fut f () =
  let r =
    try Done (f ()) with e -> Raised (e, Printexc.get_raw_backtrace ())
  in
  locked fut.pool (fun () ->
      fut.st <- r;
      Condition.broadcast fut.pool.wakeup)

let submit t f =
  let fut = { pool = t; st = Pending } in
  let no_workers = locked t (fun () -> t.workers = []) in
  if no_workers then run_into fut f ()
  else
    locked t (fun () ->
        Queue.add (run_into fut f) t.jobs;
        Condition.signal t.wakeup);
  fut

let await fut =
  let t = fut.pool in
  let rec loop () =
    (* under the lock: either resolve, steal a job to help with, or
       sleep until something changes *)
    let action =
      locked t (fun () ->
          let rec decide () =
            match fut.st with
            | Done v -> `Return v
            | Raised (e, bt) -> `Reraise (e, bt)
            | Pending -> (
              match Queue.take_opt t.jobs with
              | Some j -> `Help j
              | None ->
                Condition.wait t.wakeup t.m;
                decide ())
          in
          decide ())
    in
    match action with
    | `Return v -> v
    | `Reraise (e, bt) -> Printexc.raise_with_backtrace e bt
    | `Help j ->
      j ();
      loop ()
  in
  loop ()

let shutdown t =
  let workers =
    locked t (fun () ->
        t.closing <- true;
        Condition.broadcast t.wakeup;
        let w = t.workers in
        t.workers <- [];
        w)
  in
  List.iter Domain.join workers

(* [drain]: run the queue dry on the calling domain before asking
   workers to exit. [shutdown] alone is already drain-ish — workers
   only stop once [take_opt] comes up empty — but helping from the
   caller bounds the wait by the work itself, not by worker count. *)
let drain t =
  let rec help () =
    match locked t (fun () -> Queue.take_opt t.jobs) with
    | Some j ->
      j ();
      help ()
    | None -> ()
  in
  help ();
  shutdown t

(* --- process-global pool --------------------------------------------- *)

let global_m = Mutex.create ()
let global_pool : t option ref = ref None

let global ~size () =
  Mutex.lock global_m;
  let t =
    match !global_pool with
    | Some t -> t
    | None ->
      let t = create ~size:0 in
      global_pool := Some t;
      t
  in
  Mutex.unlock global_m;
  let want = min (max 0 size) max_workers in
  locked t (fun () ->
      let have = List.length t.workers in
      if have < want then spawn_workers t (want - have));
  t

(* Lifecycle for the process-global pool: drain the queue, join the
   worker domains, and clear the slot so a later [global] starts fresh.
   Bench and fuzz runs call it to have their workers gone before final
   reporting. Idempotent; thread-safe. *)
let shutdown_global () =
  Mutex.lock global_m;
  let t = !global_pool in
  global_pool := None;
  Mutex.unlock global_m;
  match t with None -> () | Some t -> drain t

(* computed eagerly at module init: a [lazy] here would be forced
   concurrently by worker domains (any run with [pool = None] inside a
   pooled job), and plain lazies are not domain-safe — concurrent
   forcing raises [CamlinternalLazy.Undefined] *)
let env_size =
  let v =
    match Sys.getenv_opt "MSSP_POOL" with
    | None -> 0
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> n
      | Some _ | None -> 0)
  in
  fun () -> v

let effective = function Some n -> max 0 n | None -> env_size ()

let map_runs ~jobs f items =
  match items with
  | [] | [ _ ] -> List.map f items
  | _ when jobs <= 1 -> List.map f items
  | _ ->
    let t = global ~size:(min jobs (List.length items)) () in
    let futs = List.map (fun x -> submit t (fun () -> f x)) items in
    List.map await futs
