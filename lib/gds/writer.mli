(** Exact-size GDSII stream writing: the one encoder behind
    {!Stream.to_bytes} and the placed-design export.

    Every record's length is known before a byte is written, so a stream
    is written in two steps: add up its length with the [*_length]
    functions, {!create} a buffer of exactly that size, then fill it.
    Each writer sets its records' fields in place at the offset it is
    given, laid out byte for byte as {!Record.encode} lays them out, and
    returns the offset just past them.  A caller may therefore fill the
    buffer out of order: the flow writes each layer's rectangles at that
    layer's running offset.  {!finish} writes ENDLIB and hands the buffer
    over as a string without copying it.

    A record's length is a 16-bit field, so a record longer than
    {!Record.max_length} cannot be framed.  The [*_length] functions and
    the writers raise [Invalid_argument] rather than wrap; a caller with
    an error channel checks {!name_length} first. *)

type t

val name_length : string -> int
(** The length of the LIBNAME or STRNAME record carrying a name: four
    header bytes plus the name padded to even length.  Not checked
    against {!Record.max_length}. *)

val header_length : libname:string -> int
(** HEADER, BGNLIB, LIBNAME and UNITS. *)

val structure_length : string -> int
(** BGNSTR, STRNAME and ENDSTR of the structure with this name. *)

val rect_length : int
(** 64 bytes: one rectangle as a BOUNDARY element with a closed
    five-point XY record. *)

val boundary_length : points:int -> int
(** A BOUNDARY element whose XY record holds [points] pairs. *)

val endlib_length : int

val create : int -> t
(** A buffer of exactly this many bytes, to be filled by the writers. *)

val header : t -> int -> libname:string -> user_unit_m:float -> int
(** HEADER, BGNLIB, LIBNAME and UNITS (one user unit per database unit,
    [user_unit_m] metres per database unit). *)

val begin_structure : t -> int -> string -> int
(** BGNSTR and STRNAME. *)

val end_structure : t -> int -> int

val rect : t -> int -> layer:int -> dx:int -> dy:int -> Geom.Rect.t -> int
(** The rectangle translated by ([dx], [dy]) on datatype 0, as the closed
    polygon (x0,y0) (x1,y0) (x1,y1) (x0,y1) (x0,y0) — the element
    {!Stream.element_of_rect} describes. *)

val boundary : t -> int -> layer:int -> datatype:int -> (int * int) list
  -> int
(** A BOUNDARY element with these XY pairs. *)

val finish : t -> int -> string
(** [finish w pos] writes ENDLIB at [pos] and returns the stream.  Raises
    [Invalid_argument] unless ENDLIB ends exactly at the buffer's size;
    [w] must not be written afterwards. *)
