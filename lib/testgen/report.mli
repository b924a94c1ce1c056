(** Human-readable rendering of a testgen campaign.

    The text is a pure function of the {!Campaign.result} — no clocks,
    no float formatting that depends on libm — so for a fixed seed it is
    byte-stable and can be pinned by a golden test. *)

val signature_string : Dictionary.signature -> string
(** [{row:drive,...}] with drives spelled per
    {!Logic.Switch_graph.drive_string}. *)

val to_text : Campaign.result -> string
