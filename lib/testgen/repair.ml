type spare_point = {
  spares : int;
  repaired : int;
  yield : float;
}

let popcount m =
  let rec go n m = if m = 0 then n else go (n + 1) (m land (m - 1)) in
  go 0 m

let min_repair_cost ~prep ~pun_tracks ~pdn_tracks =
  let reference = Layout.Cell.prepared_reference prep in
  (* only tracks that actually contribute edges can matter; keep their
     region so the rebuilt graph offsets internals correctly *)
  let groups =
    List.filter_map
      (fun g -> if g = [] then None else Some (`Pun, g))
      pun_tracks
    @ List.filter_map
        (fun g -> if g = [] then None else Some (`Pdn, g))
        pdn_tracks
  in
  let groups = Array.of_list groups in
  let n = Array.length groups in
  let functional removed_mask =
    let pun_extra = ref [] and pdn_extra = ref [] in
    Array.iteri
      (fun i (region, edges) ->
        if removed_mask land (1 lsl i) = 0 then
          match region with
          | `Pun -> pun_extra := edges :: !pun_extra
          | `Pdn -> pdn_extra := edges :: !pdn_extra)
      groups;
    let got =
      Layout.Cell.truth_of_prepared prep ~pun_tracks:!pun_extra
        ~pdn_tracks:!pdn_extra
    in
    Logic.Truth.equal got reference
  in
  let found = ref None in
  (try
     for size = 0 to n do
       for mask = 0 to (1 lsl n) - 1 do
         if popcount mask = size && functional mask then begin
           found := Some size;
           raise Exit
         end
       done
     done
   with Exit -> ());
  !found

let curve_of_costs ~trials ~max_spares ~cost_hist =
  if Array.length cost_hist <> max_spares + 2 then
    invalid_arg "Repair.curve_of_costs: histogram length <> max_spares + 2";
  let rec points s functional_and_repaired repaired acc =
    if s > max_spares then List.rev acc
    else begin
      let cum = functional_and_repaired + cost_hist.(s) in
      let repaired = repaired + (if s = 0 then 0 else cost_hist.(s)) in
      let yield =
        if trials = 0 then 0. else float_of_int cum /. float_of_int trials
      in
      points (s + 1) cum repaired ({ spares = s; repaired; yield } :: acc)
    end
  in
  points 0 0 0 []

type redundancy_point = {
  tubes : int;
  overhead : float;
  yield : float;
}

let device_count (cell : Layout.Cell.t) =
  2 * Logic.Network.device_count
        (Logic.Network.of_expr cell.Layout.Cell.fn.Logic.Cell_fun.core)

(* integer powers and binomial coefficients by iteration: identical
   floating operations in identical order on every platform, unlike libm
   [**] *)
let fpow x n =
  let r = ref 1. in
  for _ = 1 to n do
    r := !r *. x
  done;
  !r

let choose m k =
  let k = min k (m - k) in
  let r = ref 1. in
  for i = 1 to k do
    r := !r *. float_of_int (m - k + i) /. float_of_int i
  done;
  !r

let binomial_tail ~m ~n ~p =
  if n <= 0 then 1.
  else if n > m then 0.
  else begin
    let q = 1. -. p in
    let total = ref 0. in
    for k = n to m do
      total := !total +. (choose m k *. fpow p k *. fpow q (m - k))
    done;
    (* summation can creep a hair past 1 in the last ulp; clamp *)
    Float.min 1. !total
  end

let redundancy_curve ~p_good ~n_required ~devices ~max_extra =
  List.init (max_extra + 1) (fun extra ->
      let m = n_required + extra in
      let device_yield = binomial_tail ~m ~n:n_required ~p:p_good in
      {
        tubes = m;
        overhead = float_of_int m /. float_of_int n_required;
        yield = fpow device_yield devices;
      })
