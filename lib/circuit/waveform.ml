type t = {
  mutable times : float array;
  mutable values : float array;
  mutable n : int;
}

let create () = { times = Array.make 1024 0.; values = Array.make 1024 0.; n = 0 }

let push t time v =
  if t.n = Array.length t.times then begin
    let grow a =
      let b = Array.make (2 * Array.length a) 0. in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.times <- grow t.times;
    t.values <- grow t.values
  end;
  t.times.(t.n) <- time;
  t.values.(t.n) <- v;
  t.n <- t.n + 1

let length t = t.n

let time t i =
  if i < 0 || i >= t.n then invalid_arg "Waveform.time";
  t.times.(i)

let value t i =
  if i < 0 || i >= t.n then invalid_arg "Waveform.value";
  t.values.(i)

let last_value t = if t.n = 0 then 0. else t.values.(t.n - 1)

let value_at t at =
  if t.n = 0 then 0.
  else if at <= t.times.(0) then t.values.(0)
  else if at >= t.times.(t.n - 1) then t.values.(t.n - 1)
  else begin
    (* binary search for the bracketing samples *)
    let rec bs lo hi =
      if hi - lo <= 1 then (lo, hi)
      else
        let mid = (lo + hi) / 2 in
        if t.times.(mid) <= at then bs mid hi else bs lo mid
    in
    let lo, hi = bs 0 (t.n - 1) in
    let t0 = t.times.(lo) and t1 = t.times.(hi) in
    if t1 <= t0 then t.values.(lo)
    else
      let f = (at -. t0) /. (t1 -. t0) in
      t.values.(lo) +. (f *. (t.values.(hi) -. t.values.(lo)))
  end

type direction = Rising | Falling

let crossings t ~level =
  let out = ref [] in
  for i = 0 to t.n - 2 do
    let a = t.values.(i) and b = t.values.(i + 1) in
    if (a < level && b >= level) || (a >= level && b < level) then begin
      let f = if b = a then 0. else (level -. a) /. (b -. a) in
      let at = t.times.(i) +. (f *. (t.times.(i + 1) -. t.times.(i))) in
      let dir = if b > a then Rising else Falling in
      out := (at, dir) :: !out
    end
  done;
  List.rev !out

let propagation_delays ~input ~output ~level =
  let ins = crossings input ~level and outs = crossings output ~level in
  List.filter_map
    (fun (ti, _) ->
      match List.find_opt (fun (to_, _) -> to_ > ti) outs with
      | Some (to_, _) -> Some (to_ -. ti)
      | None -> None)
    ins
