(** MOSFET-like CNFET compact model with inter-CNT screening.

    Follows the structure of the Deng–Wong compact model [14, 15]: near
    ballistic per-tube transport, threshold from the tube band gap, and a
    charge-screening factor that de-rates both the per-tube drive current
    and the per-tube gate capacitance as the CNT pitch shrinks (adjacent
    tubes screen the gate field).  The screening factor
    [eta(p) = 1 - exp(-p/p0)], combined with the plate-limited gate
    capacitance, gives the experimentally observed interior optimum pitch:
    more tubes in a fixed gate width amortize the fixed parasitics and the
    gate capacitance saturates, but below the optimum pitch the screening
    loss of drive dominates (paper: optimum ~ 5nm at the 65nm node with
    polysilicon gates and low-k dielectric). *)

type tech = {
  chirality : int * int;
  vdd : float;
  i_tube_sat : float;
      (** per-tube saturation current at full overdrive, no screening (A) *)
  v_crit : float;  (** drain saturation knee voltage (V) *)
  alpha : float;  (** overdrive exponent (~1 for ballistic transport) *)
  ss_mv_dec : float;  (** subthreshold slope, mV/decade *)
  screening_p0_nm : float;  (** screening length p0 in eta(p) *)
  c_tube_af : float;
      (** gate-to-tube capacitance per tube at low density (aF) *)
  c_sat_af : float;
      (** parallel-plate limit of the gate capacitance for dense arrays *)
  c_fixed_af : float;
      (** per-device fixed parasitic (contacts, fringe) on the gate (aF) *)
  c_drain_af : float;  (** per-device drain parasitic (aF) *)
  c_drain_tube_af : float;  (** per-tube drain-side capacitance (aF) *)
  ref_width_nm : float;
      (** gate width the per-device capacitances are quoted at; plate limit
          and fixed parasitics scale linearly with width *)
}

val default_tech : tech
(** Calibrated to the paper's 65nm anchors: single-tube inverter ~2.75x
    faster / ~6.3x lower energy than CMOS; optimum pitch ~5nm with ~4.2x
    delay gain. *)

val screening : tech -> pitch_nm:float -> float
(** eta(pitch) in (0, 1]; 1 for a single tube (infinite pitch). *)

val pitch_of : width_nm:float -> tubes:int -> float
(** Pitch of [tubes] tubes in a gate of the given width ([infinity] for a
    single tube). *)

val threshold : tech -> float

type iv
(** The tube-current evaluator of one technology: the constants of the
    drive law (nominal threshold, softplus smoothing voltage, softplus
    overdrive at full gate drive, knee at [vds = vdd]) computed once, so
    an I–V call evaluates only its input-dependent terms. *)

val iv : tech -> iv

val tube_on_current : iv -> eta:float -> vt:float -> float
(** Current of one tube with threshold [vt] and screening factor [eta]
    at [vgs = vds = vdd], through the same drive law as {!make}'s
    devices (whose tubes sit at the nominal {!threshold}). *)

val make : tech -> ?name:string -> polarity:Model.polarity -> tubes:int
  -> width_nm:float -> unit -> Model.t
(** CNFET with [tubes] tubes under a gate [width_nm] wide.  Drive and
    capacitance scale with the tube count, de-rated by screening at the
    resulting pitch. *)

val on_current : tech -> tubes:int -> width_nm:float -> float
(** Drain current at [vgs = vds = vdd]. *)

val gate_cap_af : tech -> tubes:int -> width_nm:float -> float
(** Lumped gate capacitance in attofarads. *)
