(** Task safety — "the principal condition upon which correct operation
    rests" (paper §4, Definition 6) — and its low-level characterization
    (Theorem 2). *)

val safe : Abstract_task.t -> Mssp_state.Fragment.t -> bool
(** Definition 6: [t] is safe for [S] iff
    [seq (S, #t) = S ← live_out(t)] (with the completed live-out; the
    task is evolved fully first, per Lemma 2). Note this is a property of
    the task {e and} the state — commits change which tasks are safe. *)

val consistent_and_complete :
  Abstract_task.t -> Mssp_state.Fragment.t -> bool
(** Theorem 2's premises, the two checks a real verification unit
    performs: [live_in(t) ⊑ S] (consistency with architected state) and
    [live_in(t)] is [#t]-complete (every step executable from the
    prediction alone). Theorem 2: these imply {!safe} — property-checked
    in [test/test_formal.ml] on model tasks only. The machine does not
    call this module: its verification unit checks a real task's
    recorded live-ins with [Mssp_task.Task.live_ins_consistent]. Judging
    the machine's own tasks here is ROADMAP's "formal layer judges the
    machine's own tasks" item. *)

val set_safe :
  Abstract_task.t list -> Mssp_state.Fragment.t -> Abstract_task.t list option
(** Safety of a {e task set} (§4.3): a set is safe for [S] if some
    enumeration commits each member against the state left by its
    predecessor. Returns such an enumeration if one exists (exponential
    search; meant for the small formal-model instances). *)

val commit :
  Abstract_task.t -> Mssp_state.Fragment.t -> Mssp_state.Fragment.t
(** The commit operation [S ← live_out(t)] (Definition 7), on the fully
    evolved task. *)
