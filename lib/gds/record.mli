(** GDSII stream-format records: the low-level binary encoding.

    A record is [length(2) | record-type(1) | data-type(1) | payload];
    integers are big-endian two's complement, reals use the GDSII excess-64
    base-16 format. *)

type record_type =
  | Header | Bgnlib | Libname | Units | Endlib | Bgnstr | Strname | Endstr
  | Boundary | Layer | Datatype | Xy | Endel | Sref | Sname | Text | String_
  | Texttype | Presentation

val type_code : record_type -> int

type payload =
  | No_data
  | I16 of int list
  | I32 of int list
  | Real8 of float list
  | Ascii of string

type t = { rtype : record_type; payload : payload }

val max_length : int
(** 65534: the longest record a 16-bit length field frames (records are
    even). *)

val encode : Buffer.t -> t -> unit
(** Appends one record.  Raises [Invalid_argument] when the record is
    longer than {!max_length}.  {!Writer} writes the same bytes without
    building records; this encoder is the reference it is tested
    against. *)

val decode : string -> pos:int -> (t * int, string) result
(** [decode bytes ~pos] reads one record, returning it and the next
    position. *)

val encode_real8 : float -> int64
(** Exposed for tests: GDSII 8-byte real encoding. *)

val decode_real8 : int64 -> float
