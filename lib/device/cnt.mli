(** Carbon-nanotube physics helpers.

    Chirality [(n, m)] determines the tube diameter, which sets the band
    gap and hence the threshold voltage of a MOSFET-like CNFET.  Constants
    follow the Stanford compact-model conventions. *)

val is_metallic : n:int -> m:int -> bool
(** A tube is metallic when [(n - m) mod 3 = 0]. *)

val diameter_nm : n:int -> m:int -> float
(** d = a sqrt(n^2 + nm + m^2) / pi. *)

val bandgap_ev : diameter_nm:float -> float
(** Eg ~ 2 a_cc V_pi / d ~ 0.84 eV nm / d. *)

val threshold_v : diameter_nm:float -> float
(** Vt ~ Eg / 2e — half the band gap in volts. *)
