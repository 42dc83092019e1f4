(** The mode of the retired live-in value predictor.

    The master's distilled program is the machine's value predictor: its
    checkpoint is the slaves' live-in, and verify/commit absorbs every
    wrong value. No second predictor sits on top of it. *)

type mode = Off | Tournament
(** Has no effect; kept only because the repo benchmark sets or reads it
    (through [Mssp_core.Mssp_config.predict]). It goes once that pin
    does. *)
