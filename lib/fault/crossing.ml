type hit = { at : float; elem : Layout.Fabric.element }

(* Fabric geometry is immutable during a campaign; a [prepared] value
   buckets the item rectangles into a {!Geom.Index} once per campaign so
   each trial clips a track only against the items whose buckets the track
   traverses instead of against every element.  The index holds no mutable
   query state, so a [prepared] value can be shared read-only across
   domains. *)
type prepared = {
  fabric : Layout.Fabric.t;
  index : Layout.Fabric.element Geom.Index.t;
}

let prepare (f : Layout.Fabric.t) =
  {
    fabric = f;
    index =
      Geom.Index.build
        (List.map
           (fun (p : Layout.Fabric.placed) ->
             (p.Layout.Fabric.rect, p.Layout.Fabric.elem))
           f.Layout.Fabric.items);
  }

let fabric p = p.fabric

let hits_prepared p seg =
  (* the index returns candidates in item order — the same pre-sort order
     the full scan produced — so the sort below is bit-identical to it *)
  let acc =
    List.map
      (fun (t0, t1, elem) -> { at = (t0 +. t1) /. 2.; elem })
      (Geom.Index.query_segment p.index seg)
  in
  List.sort (fun a b -> Stdlib.compare a.at b.at) acc

let edges_of_hits ~polarity hits =
  let fold (acc, state) h =
    match h.elem with
    | Layout.Fabric.Gate g -> (
      match state with
      | None -> (acc, None)  (* dangling piece: no contact reached yet *)
      | Some (src, gates) -> (acc, Some (src, g :: gates)))
    | Layout.Fabric.Etch -> (acc, None)
    | Layout.Fabric.Contact n -> (
      match state with
      | None -> (acc, Some (n, []))
      | Some (src, gates) ->
        let e =
          { Logic.Switch_graph.src; dst = n; gates = List.rev gates; polarity }
        in
        (e :: acc, Some (n, [])))
  in
  (* a dangling piece before the first contact conducts but connects
     nothing, so starting with [None] is correct *)
  let acc, _ = List.fold_left fold ([], None) hits in
  List.rev acc

let edges_prepared p seg =
  edges_of_hits ~polarity:p.fabric.Layout.Fabric.polarity (hits_prepared p seg)

let hits (f : Layout.Fabric.t) seg = hits_prepared (prepare f) seg

let edges (f : Layout.Fabric.t) seg =
  edges_of_hits ~polarity:f.Layout.Fabric.polarity (hits f seg)
