(** From a CNT track to the conduction edges it contributes.

    The track is clipped against every placed element of the fabric; hits
    are ordered along the track and folded: contacts terminate conduction
    pieces, gates accumulate into the series set of the current piece, an
    etched strip cuts the CNT.  Doping follows the paper's model — outside
    gate regions the CNT is fully doped (conducting), under a gate it is
    intrinsic and gated. *)

type hit = { at : float; elem : Layout.Fabric.element }

type prepared
(** A fabric with its item geometry bucketed into a {!Geom.Index}.  Holds
    no mutable state: one [prepared] value per fabric can be shared
    read-only by every trial of a campaign, across domains.  Build it once
    with {!prepare} so each trial clips only against the items whose grid
    buckets the track traverses instead of re-scanning every item. *)

val prepare : Layout.Fabric.t -> prepared

val fabric : prepared -> Layout.Fabric.t
(** The fabric the cache was built from. *)

val hits : Layout.Fabric.t -> Geom.Segment.t -> hit list
(** Element crossings ordered by track parameter. *)

val hits_prepared : prepared -> Geom.Segment.t -> hit list
(** Same as {!hits} on the cached geometry; equal output for equal input. *)

val edges : Layout.Fabric.t -> Geom.Segment.t -> Logic.Switch_graph.edge list
(** Conduction edges between consecutive contacts reached by the track
    without an intervening etch; each edge is gated by the gates crossed
    in between (possibly none — a hard short). *)

val edges_prepared : prepared -> Geom.Segment.t -> Logic.Switch_graph.edge list
(** Same as {!edges} on the cached geometry; equal output for equal input. *)
