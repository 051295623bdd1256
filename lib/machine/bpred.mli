(** LTAGE-style branch predictor with BTB and return-address stack.

    Counts outcomes in the counter group as ["bpred.cond_correct"],
    ["bpred.cond_mispredict"], ["bpred.ras_*"], ["bpred.btb_*"]. *)

type t

val create : Chex86_stats.Counter.group -> t

(** [resolve t ~pc ~kind ~taken ~target] updates all predictor state and
    returns whether the front-end prediction was correct. *)
val resolve :
  t -> pc:int -> kind:Chex86_isa.Uop.branch_kind -> taken:bool -> target:int -> bool

(** Push a return address (used for indirect calls, which resolve their
    target through the BTB). *)
val ras_push : t -> int -> unit
