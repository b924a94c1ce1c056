(** Adaptive explicit transient solver.

    Every free node carries capacitance to ground; device currents charge
    and discharge it.  The update is forward Euler, with a step chosen so
    that no free node moves more than [dv_max] in one step.

    That bound limits the move, not the stability.  Near [vds -> 0] the
    device law's tanh knee gives a conductance [G ~ I/vds], so once a
    node's vds falls below [dv_max] the step exceeds [C/G] and the node
    oscillates around its settled value.  On a CNFET NAND2 X1 arc with
    two INV1X loads (input A toggling, the stack on) the quiet window
    from 1.5 to 1.9 ns takes 1,882 steps of ~0.21 ps although [dt_max]
    is 5 ps; [out] and the stack node [dut_i1] reverse their move on
    every one of those steps, [dut_i1] rattling between -1.6 and
    +3.4 mV.  The rattle stays bounded, but the step count is set by
    stiffness on nodes nobody measures, and the 50% delay at the default
    5 mV carries a ~1% error: 9.456 ps against 9.366 ps at
    [dv_max] = 0.3 mV on a NAND2 X1 arc with four loads.

    Devices are evaluated in one {!Device.Model.add_currents} call per
    step.  A step allocates only the boxed floats it hands to the source
    closures and to {!Waveform.push}, about 15 minor words on a NAND2 arc
    netlist. *)

type config = {
  t_stop : float;
  dt_min : float;
  dt_max : float;
  dv_max : float;  (** max per-node voltage move per step, volts *)
  c_min : float;  (** floor capacitance added to every free node *)
}

val default_config : config
(** 2 ns stop, 1 fs..5 ps steps, 5 mV moves, 1 aF floor. *)

type result = {
  waves : (Netlist.node * Waveform.t) list;  (** probed node waveforms *)
  supply_energy : (Netlist.node * float) list;
      (** energy delivered by each source over the run, joules *)
  steps : int;
}

val run : ?config:config -> Netlist.t -> probes:Netlist.node list -> result

val wave : result -> Netlist.node -> Waveform.t
(** @raise Not_found if the node was not probed. *)

val energy_from : result -> Netlist.node -> float
(** Total energy delivered by the source driving the node (0 when the node
    sources no net energy). *)
