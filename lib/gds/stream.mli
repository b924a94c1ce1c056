(** GDSII libraries: structures of boundary elements, serialized to and
    parsed from the binary stream format.

    Coordinates are in database units; {!write} sets one database unit to
    one lambda of the given rules (user unit = lambda in metres), so
    layouts stream out at true 65nm-node scale. *)

type element = {
  layer : int;
  datatype : int;
  xy : (int * int) list;  (** closed polygon: first point repeated last *)
}

type structure = { sname : string; elements : element list }

type library = {
  libname : string;
  user_unit_m : float;  (** metres per database unit *)
  structures : structure list;
}

val element_of_rect : layer:int -> Geom.Rect.t -> element

val user_unit_m : Pdk.Rules.t -> float
(** One lambda of the rules, in metres: the database unit {!library}
    sets. *)

val library : rules:Pdk.Rules.t -> name:string
  -> (string * (Pdk.Layer.t * Geom.Region.t) list) list -> library
(** Build a library with one structure per named cell from per-layer
    geometry (as produced by [Layout.Cell.layers]). *)

val to_bytes : library -> string
(** The library as one GDSII stream, written by {!Writer} into a buffer
    of exactly its size.  Raises [Invalid_argument] when a name or a
    polygon does not fit a record's 16-bit length field. *)

val of_bytes : string -> (library, string) result
(** Parses the subset emitted by {!to_bytes} (boundaries only; SREF/TEXT
    records are skipped). *)

val write_file : string -> library -> unit
val read_file : string -> (library, string) result
