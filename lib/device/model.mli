(** Common transistor-model interface consumed by the circuit simulator.

    A device is a voltage-controlled current source between drain and
    source plus lumped capacitances.  Currents use n-type conventions:
    [i_d t ~vgs ~vds] is the drain-to-source current for positive [vgs],
    [vds]; p-type devices are handled by mirroring voltages.

    Both device models share one I–V law, so a device carries its law
    as data ({!law}) rather than as a closure: the transient solver
    evaluates every device of a netlist in one allocation-free loop
    ({!add_currents}). *)

type polarity = Nfet | Pfet

type law = {
  pre : float;  (** multiplies the drive first (A) *)
  post : float;  (** multiplies the kneed drive last (1.0 to skip) *)
  vt : float;  (** threshold voltage (V) *)
  phi : float;  (** softplus smoothing voltage (V) *)
  full : float;  (** softplus overdrive at [vgs = vdd] (V) *)
  alpha : float;  (** overdrive exponent *)
  v_crit : float;  (** drain saturation knee voltage (V) *)
}
(** [i_d = ((pre * drive) * tanh (vds / v_crit)) * post] for [vds > 0],
    with [drive = (phi * log (1 + exp ((vgs - vt) / phi)) / full) ** alpha]
    and 0 otherwise: continuous and monotone in both arguments.  The
    product order is part of the contract; CNFETs put the screened
    per-tube current in [pre] and the tube count in [post], MOSFETs put
    [k * width] in [pre] and 1.0 in [post]. *)

type t = {
  name : string;
  polarity : polarity;
  law : law;
  c_gate : float;  (** lumped gate capacitance, farads *)
  c_drain : float;  (** lumped drain junction/parasitic capacitance *)
}

val i_d : t -> vgs:float -> vds:float -> float
(** Drain current in amperes for the {e magnitude} voltages; 0 at
    [vds <= 0]. *)

val current : t -> vg:float -> vd:float -> vs:float -> float
(** Signed terminal current *into the drain node* given absolute node
    voltages, handling polarity and source/drain symmetry (the device
    conducts for either sign of vds). *)

type kernel
(** The devices of a netlist compiled for {!add_currents}. *)

val kernel : (t * int * int * int) list -> kernel
(** [kernel [(device, gate, drain, source); ...]] with node indices into
    the voltage array {!add_currents} reads. *)

val add_currents : kernel -> float array -> float array -> unit
(** [add_currents k v current] adds every device's {!current} at node
    voltages [v] into [current.(drain)] and subtracts it from
    [current.(source)], device by device in list order: bit-identical to
    folding {!current} over the list, and allocation-free. *)
