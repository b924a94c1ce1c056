(* Synthetic netlist generators: array multiplier, unrolled LFSR, and a
   seeded random logic cloud.  All three emit plain {!Netlist_ir} designs
   over the standard-cell catalog, which is what lets the placer, DRC,
   crossing extraction and STA run at 10k+ instances instead of on the
   hand-written full adder only.

   Non-unate cells (XOR2, MUX2) take complemented inputs as explicit pins;
   the builder memoizes one INV per net so a complement is generated at
   most once per design. *)

let stage = "generate"

let ( let* ) = Result.bind

type builder = {
  mutable insts : Netlist_ir.instance list;  (* reverse creation order *)
  compl_tbl : (string, string) Hashtbl.t;  (* net -> its complement net *)
  mutable fresh : int;
}

let new_builder () =
  { insts = []; compl_tbl = Hashtbl.create 64; fresh = 0 }

let fresh b prefix =
  let k = b.fresh in
  b.fresh <- k + 1;
  Printf.sprintf "%s%d" prefix k

let add b cell conns out =
  b.insts <-
    { Netlist_ir.inst_name = fresh b "g"; cell; drive = 1; output = out;
      conns }
    :: b.insts

let instances b = List.rev b.insts

(* Memoized complement: at most one INV per distinct net. *)
let compl b net =
  match Hashtbl.find_opt b.compl_tbl net with
  | Some n -> n
  | None ->
    let out = fresh b "w" in
    add b "INV" [ ("A", net) ] out;
    Hashtbl.replace b.compl_tbl net out;
    out

let and2 b x y =
  let n = fresh b "w" in
  add b "NAND2" [ ("A", x); ("B", y) ] n;
  let out = fresh b "w" in
  add b "INV" [ ("A", n) ] out;
  out

let xor2 b x y =
  let xn = compl b x and yn = compl b y in
  let out = fresh b "w" in
  add b "XOR2" [ ("A", x); ("B", y); ("AN", xn); ("BN", yn) ] out;
  out

let mux2 b ~s ~a ~b:bb =
  let sn = compl b s and an = compl b a and bn = compl b bb in
  let out = fresh b "w" in
  add b "MUX2" [ ("S", s); ("SN", sn); ("AN", an); ("BN", bn) ] out;
  out

(* Full adder from the grown catalog: two XOR2 for the sum, one inverted
   majority plus an inverter for the carry. *)
let full_adder b x y cin =
  let sum = xor2 b (xor2 b x y) cin in
  let coutn = fresh b "w" in
  add b "MAJ3I" [ ("A", x); ("B", y); ("C", cin) ] coutn;
  let cout = fresh b "w" in
  add b "INV" [ ("A", coutn) ] cout;
  (sum, cout)

let half_adder b x y = (xor2 b x y, and2 b x y)

(* Rename a net to a stable public name through a polarity-preserving
   buffer pair (net names are the interface of a Netlist_ir design). *)
let buffer_as b net out =
  let mid = fresh b "w" in
  add b "INV" [ ("A", net) ] mid;
  add b "INV" [ ("A", mid) ] out

(* x * x' is identically 0; used for product bits no partial sum reaches
   (only the degenerate 1-bit multiplier needs it). *)
let const_zero b seed_net =
  let n = fresh b "w" in
  add b "NAND2" [ ("A", seed_net); ("B", compl b seed_net) ] n;
  let out = fresh b "w" in
  add b "INV" [ ("A", n) ] out;
  out

(* Each generator's parameter rule is a function of its own, so that
   {!parse} can apply it without building the design. *)
let multiplier_bits bits =
  if bits < 1 || bits > 64 then
    Core.Diag.failf ~stage
      ~context:[ ("bits", string_of_int bits) ]
      "multiplier bits must be in 1..64, got %d" bits
  else Ok ()

let multiplier ~bits =
  match multiplier_bits bits with
  | Error _ as e -> e
  | Ok () ->
    let b = new_builder () in
    let a_in i = Printf.sprintf "A%d" i and b_in j = Printf.sprintf "B%d" j in
    (* partial-product bit heap: columns.(p) holds every net of weight 2^p *)
    let columns = Array.make (2 * bits) [] in
    for i = 0 to bits - 1 do
      for j = 0 to bits - 1 do
        columns.(i + j) <-
          columns.(i + j) @ [ and2 b (a_in i) (b_in j) ]
      done
    done;
    (* carry-save reduction, column by column: full adders take three bits
       of one weight to one sum plus one carry of the next weight, half
       adders finish the pairs; each column ends as a single net *)
    let outputs = ref [] in
    for p = 0 to (2 * bits) - 1 do
      let rec reduce = function
        | x :: y :: z :: rest ->
          let s, c = full_adder b x y z in
          if p + 1 < 2 * bits then columns.(p + 1) <- columns.(p + 1) @ [ c ];
          reduce (rest @ [ s ])
        | [ x; y ] ->
          let s, c = half_adder b x y in
          if p + 1 < 2 * bits then columns.(p + 1) <- columns.(p + 1) @ [ c ];
          [ s ]
        | bitlist -> bitlist
      in
      let out = Printf.sprintf "P%d" p in
      (match reduce columns.(p) with
      | [ net ] -> buffer_as b net out
      | [] -> buffer_as b (const_zero b (a_in 0)) out
      | _ -> assert false);
      outputs := out :: !outputs
    done;
    Ok
      {
        Netlist_ir.design = Printf.sprintf "mult%d" bits;
        inputs =
          List.init bits (Printf.sprintf "A%d")
          @ List.init bits (Printf.sprintf "B%d");
        outputs = List.rev !outputs;
        instances = instances b;
      }

let multiplier_check ~bits =
  if bits > 4 then
    Core.Diag.failf ~stage
      ~context:[ ("bits", string_of_int bits) ]
      "exhaustive multiplier check limited to 4 bits, got %d" bits
  else
    let* n = multiplier ~bits in
    let* eval = Netlist_ir.evaluator n in
    let exception Bad of string in
    try
      for a = 0 to (1 lsl bits) - 1 do
        for bv = 0 to (1 lsl bits) - 1 do
          let env name =
            let k =
              int_of_string (String.sub name 1 (String.length name - 1))
            in
            let v = if name.[0] = 'A' then a else bv in
            (v lsr k) land 1 = 1
          in
          let got =
            List.fold_left
              (fun acc p ->
                acc
                lor
                if eval env (Printf.sprintf "P%d" p) then 1 lsl p else 0)
              0
              (List.init (2 * bits) Fun.id)
          in
          if got <> a * bv then
            raise
              (Bad
                 (Printf.sprintf "%d * %d = %d, multiplier says %d" a bv
                    (a * bv) got))
        done
      done;
      Ok ()
    with Bad m ->
      Core.Diag.fail ~stage ~context:[ ("bits", string_of_int bits) ] m

(* Fibonacci LFSR taps (feedback = xor of the tapped state bits) giving a
   maximal sequence for the widths the generator supports directly; other
   widths fall back to a two-tap xor which is still a valid shift network
   for throughput purposes. *)
let taps_for bits =
  match bits with
  | 8 -> [ 7; 5; 4; 3 ]
  | 16 -> [ 15; 14; 12; 3 ]
  | 24 -> [ 23; 22; 21; 16 ]
  | 32 -> [ 31; 21; 1; 0 ]
  | _ -> [ bits - 1; 0 ]

let lfsr_params ~bits ~steps =
  if bits < 2 || bits > 62 then
    Core.Diag.failf ~stage
      ~context:[ ("bits", string_of_int bits) ]
      "lfsr bits must be in 2..62, got %d" bits
  else if steps < 1 then
    Core.Diag.failf ~stage
      ~context:[ ("steps", string_of_int steps) ]
      "lfsr steps must be >= 1, got %d" steps
  else Ok ()

let lfsr ~bits ~steps =
  match lfsr_params ~bits ~steps with
  | Error _ as e -> e
  | Ok () ->
    let b = new_builder () in
    let state =
      Array.init bits (fun j -> Printf.sprintf "S%d" j)
    in
    for _ = 1 to steps do
      let fb =
        match taps_for bits with
        | t0 :: rest ->
          List.fold_left (fun acc t -> xor2 b acc state.(t)) state.(t0) rest
        | [] -> assert false
      in
      (* shift right: bit j takes bit j+1, the top bit takes the feedback *)
      for j = 0 to bits - 2 do
        state.(j) <- state.(j + 1)
      done;
      state.(bits - 1) <- fb
    done;
    let outputs = List.init bits (Printf.sprintf "Q%d") in
    Array.iteri
      (fun j net -> buffer_as b net (Printf.sprintf "Q%d" j))
      state;
    Ok
      {
        Netlist_ir.design = Printf.sprintf "lfsr%dx%d" bits steps;
        inputs = List.init bits (Printf.sprintf "S%d");
        outputs;
        instances = instances b;
      }

let lfsr_reference ~bits ~steps seed =
  let taps = taps_for bits in
  let s = ref seed in
  for _ = 1 to steps do
    let fb =
      List.fold_left
        (fun acc t -> acc lxor ((!s lsr t) land 1))
        0 taps
    in
    s := (!s lsr 1) lor (fb lsl (bits - 1))
  done;
  !s

let lfsr_check ~bits ~steps ~seed =
  let* n = lfsr ~bits ~steps in
  let* eval = Netlist_ir.evaluator n in
  let env name =
    let k = int_of_string (String.sub name 1 (String.length name - 1)) in
    (seed lsr k) land 1 = 1
  in
  let got =
    List.fold_left
      (fun acc j ->
        acc lor if eval env (Printf.sprintf "Q%d" j) then 1 lsl j else 0)
      0
      (List.init bits Fun.id)
  in
  let want = lfsr_reference ~bits ~steps seed in
  if got = want then Ok ()
  else
    Core.Diag.failf ~stage
      ~context:
        [
          ("bits", string_of_int bits);
          ("steps", string_of_int steps);
          ("seed", string_of_int seed);
        ]
      "lfsr netlist state %d deviates from reference %d" got want

(* SplitMix64, locally seeded: generated designs are a pure function of
   (gates, inputs, seed) — no global Random state. *)
let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand_below state bound =
  Int64.to_int
    (Int64.rem (Int64.shift_right_logical (splitmix64 state) 1)
       (Int64.of_int bound))

let random_params ~gates ~inputs =
  if gates < 1 then
    Core.Diag.failf ~stage
      ~context:[ ("gates", string_of_int gates) ]
      "random_logic gates must be >= 1, got %d" gates
  else if inputs < 3 then
    Core.Diag.failf ~stage
      ~context:[ ("inputs", string_of_int inputs) ]
      "random_logic inputs must be >= 3, got %d" inputs
  else Ok ()

let random_logic ~gates ~inputs ~seed =
  match random_params ~gates ~inputs with
  | Error _ as e -> e
  | Ok () ->
    let b = new_builder () in
    let st = ref (Int64.of_int seed) in
    (* the pool only ever contains already-driven nets, so picking gate
       operands from it keeps the cloud combinational (a DAG) *)
    let pool = ref (Array.init inputs (Printf.sprintf "I%d")) in
    let pool_n = ref inputs in
    let grow net =
      if !pool_n = Array.length !pool then begin
        let bigger = Array.make (2 * !pool_n) net in
        Array.blit !pool 0 bigger 0 !pool_n;
        pool := bigger
      end;
      !pool.(!pool_n) <- net;
      incr pool_n
    in
    let pick () = !pool.(rand_below st !pool_n) in
    let made = ref [] in
    for _ = 1 to gates do
      let out =
        match rand_below st 8 with
        | 0 ->
          let n = fresh b "w" in
          add b "NAND2" [ ("A", pick ()); ("B", pick ()) ] n;
          n
        | 1 ->
          let n = fresh b "w" in
          add b "NOR2" [ ("A", pick ()); ("B", pick ()) ] n;
          n
        | 2 ->
          let n = fresh b "w" in
          add b "AOI21" [ ("A1", pick ()); ("A2", pick ()); ("B", pick ()) ] n;
          n
        | 3 ->
          let n = fresh b "w" in
          add b "OAI21" [ ("A1", pick ()); ("A2", pick ()); ("B", pick ()) ] n;
          n
        | 4 -> xor2 b (pick ()) (pick ())
        | 5 -> mux2 b ~s:(pick ()) ~a:(pick ()) ~b:(pick ())
        | 6 ->
          let n = fresh b "w" in
          add b "MAJ3I" [ ("A", pick ()); ("B", pick ()); ("C", pick ()) ] n;
          n
        | _ ->
          let n = fresh b "w" in
          add b "INV" [ ("A", pick ()) ] n;
          n
      in
      grow out;
      made := out :: !made
    done;
    let tails = List.filteri (fun i _ -> i < 8) !made in
    let outputs = List.mapi (fun i _ -> Printf.sprintf "Z%d" i) tails in
    List.iteri (fun i net -> buffer_as b net (Printf.sprintf "Z%d" i)) tails;
    Ok
      {
        Netlist_ir.design = Printf.sprintf "rand%ds%d" gates seed;
        inputs = List.init inputs (Printf.sprintf "I%d");
        outputs;
        instances = instances b;
      }

(* A parsed spec is the generator call it names, not yet made. *)
type design = unit -> (Netlist_ir.t, Core.Diag.t) result

let random_inputs = 12

(* "mult16", "lfsr32x100", "rand1000s7", "ripple8", "full_adder" *)
let parse spec =
  let num s =
    match int_of_string_opt s with
    | Some n -> Ok n
    | None ->
      Core.Diag.failf ~stage
        ~context:[ ("spec", spec) ]
        "bad number %S in design spec %s" s spec
  in
  let strip prefix =
    if String.length spec > String.length prefix
       && String.sub spec 0 (String.length prefix) = prefix
    then
      Some (String.sub spec (String.length prefix)
              (String.length spec - String.length prefix))
    else None
  in
  if spec = "full_adder" then Ok (fun () -> Ok (Full_adder.netlist ()))
  else
    match strip "mult" with
    | Some rest ->
      let* bits = num rest in
      let* () = multiplier_bits bits in
      Ok (fun () -> multiplier ~bits)
    | None -> (
      match strip "ripple" with
      | Some rest ->
        let* bits = num rest in
        let* () = Ripple_adder.check_bits bits in
        Ok (fun () -> Ripple_adder.netlist ~bits)
      | None -> (
        match strip "lfsr" with
        | Some rest -> (
          match String.index_opt rest 'x' with
          | None ->
            Core.Diag.failf ~stage
              ~context:[ ("spec", spec) ]
              "lfsr spec must look like lfsr<bits>x<steps>, got %s" spec
          | Some i ->
            let* bits = num (String.sub rest 0 i) in
            let* steps =
              num (String.sub rest (i + 1) (String.length rest - i - 1))
            in
            let* () = lfsr_params ~bits ~steps in
            Ok (fun () -> lfsr ~bits ~steps))
        | None -> (
          match strip "rand" with
          | Some rest -> (
            match String.index_opt rest 's' with
            | None ->
              Core.Diag.failf ~stage
                ~context:[ ("spec", spec) ]
                "rand spec must look like rand<gates>s<seed>, got %s" spec
            | Some i ->
              let* gates = num (String.sub rest 0 i) in
              let* seed =
                num (String.sub rest (i + 1) (String.length rest - i - 1))
              in
              let* () = random_params ~gates ~inputs:random_inputs in
              Ok (fun () -> random_logic ~gates ~inputs:random_inputs ~seed))
          | None ->
            Core.Diag.failf ~stage
              ~context:[ ("spec", spec) ]
              "unknown design spec %s (try mult<N>, lfsr<N>x<S>, rand<G>s<S>, \
               ripple<N>, full_adder)" spec)))

let of_spec spec =
  let* build = parse spec in
  build ()
