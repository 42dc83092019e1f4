(** A fixed-size domain pool with futures, built on stdlib [Domain] +
    [Mutex]/[Condition] only.

    The pool exists for two grain sizes of host parallelism:

    - {b intra-run}: the MSSP machine dispatches slave task {e functional
      execution} (pure against a checkpointed COW state) to worker
      domains, then awaits and finalizes the results on the event loop
      in the original order — so simulated cycles, stats and traces are
      bit-identical to the serial engine whatever the pool size;
    - {b inter-run}: {!map_runs} fans whole independent simulations
      (bench experiment points, fuzz campaign shards) across domains.

    Determinism contract: the pool never influences {e results}, only
    wall clock. [submit] captures a thunk; [await] returns exactly what
    the thunk returned (or re-raises what it raised). Callers are
    responsible for keeping thunks free of shared mutable state — see
    HACKING.md "Determinism under domains".

    Awaiting {e helps}: a domain blocked in {!await} executes other
    queued jobs while it waits, so nested use (a pooled run submitting
    pooled task bodies) cannot deadlock even on a pool of one worker. *)

type t
(** A pool handle. A pool of size 0 has no worker domains: [submit]
    runs the thunk inline, which is the serial engine unchanged. *)

type 'a future

val create : size:int -> t
(** [create ~size] spawns [size] worker domains (clamped to [0, 64]). *)

val size : t -> int
(** Worker domains currently spawned. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Queue a thunk. On a pool of size 0 the thunk runs inline, now. *)

val await : 'a future -> 'a
(** Block until the future resolves, executing other queued jobs while
    waiting. Re-raises (with backtrace) if the thunk raised. *)

val shutdown : t -> unit
(** Ask workers to exit once the queue drains, and join them. For the
    process-global pool use {!shutdown_global}. *)

val drain : t -> unit
(** {!shutdown}, but the calling domain first helps run the queue dry —
    the wait is bounded by the remaining work, not by worker count. *)

(** {1 Process-global pool}

    One shared pool per process, grown on demand and never shrunk —
    sizing only affects wall clock, never results, so sharing one pool
    across machine runs and harness drivers is always sound. *)

val global : size:int -> unit -> t
(** The shared pool, spawning workers so that at least
    [min size 64] exist. Thread-safe. *)

val shutdown_global : unit -> unit
(** Drain and tear down the process-global pool: finish queued jobs,
    join every worker domain, and clear the slot so a later {!global}
    spawns a fresh pool. The bench and fuzz CLIs call it before they
    exit. Idempotent (a no-op
    when no global pool exists); thread-safe. Never call it while
    other threads still hold unresolved futures on the global pool. *)

val env_size : unit -> int
(** The [MSSP_POOL] environment default: worker domains for machine runs
    that do not pin a pool size in their config (0 when unset or
    unparseable). Read once, at first use. *)

val effective : int option -> int
(** Resolve a config knob: [Some n] is [max 0 n]; [None] defers to
    {!env_size}. *)

(** {1 Inter-run driver} *)

val map_runs : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_runs ~jobs f items] computes [List.map f items], running up to
    [jobs] items concurrently on the global pool (plus the calling
    domain, which helps). Results are returned in item order; with
    [jobs <= 1] (or fewer than two items) it {e is} [List.map f items].
    [f] must not print or touch shared mutable state — collect output
    and fold it in after the call returns. *)
