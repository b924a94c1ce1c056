(** Sampled waveforms recorded during transient simulation, plus the
    measurements the experiments need (propagation delay, transition time,
    crossing detection). *)

type t

val create : unit -> t
val push : t -> float -> float -> unit
val length : t -> int
val time : t -> int -> float
val value : t -> int -> float
val last_value : t -> float

val value_at : t -> float -> float
(** Linear interpolation; clamps outside the recorded range. *)

type direction = Rising | Falling

val crossings : t -> level:float -> (float * direction) list
(** Interpolated times at which the waveform crosses [level]. *)

val propagation_delays : input:t -> output:t -> level:float -> float list
(** For each input crossing, the delay to the next output crossing
    (any direction) — the standard 50%-to-50% propagation delays. *)
