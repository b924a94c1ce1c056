(** The paper's contribution: compact misaligned-CNT-immune layouts.

    The transistor network is turned into a contact/gate multigraph and
    decomposed into Euler trails ("drawing an Euler path from the Vdd to
    the Gnd"); each trail becomes a run of full-height vertical stripes
    [contact, gate, contact, ...] and trail breaks duplicate a contact.
    Because every stripe spans the whole strip height there is no corridor
    a mispositioned CNT can use to bypass a gate: between any two contacts
    it touches, a CNT always crosses exactly the intended series gates. *)

val strip : ?uniform:bool -> rules:Pdk.Rules.t
  -> polarity:Logic.Network.polarity -> widths:(string * int) list
  -> Logic.Network.t -> (Fabric.t, Core.Diag.t) result
(** Single-strip immune layout of one network.  [widths] gives the drawn
    width (strip height) of each input's device, typically from
    {!Sizing.widths}; a non-positive width is rejected with a [Diag]
    error.  With [uniform] (default) all devices are drawn at the strip's
    tallest width; a non-uniform strip is smaller in drawn active but
    loses immunity margin against slanted CNTs at height steps (the
    ablation benchmark quantifies this). *)
