type t = {
  tck_s : float;
  burst_length : int;
  bus_width_bits : int;
  cl : int;
  cwl : int;
  trcd : int;
  trp : int;
  tras : int;
  trfc : int;
  trefi : int;
  banks : int;
  row_bytes : int;
  capacity_bytes : float;
}

let make ?(tck_s = 1.25e-9) ?(burst_length = 8) ?(bus_width_bits = 32) ?(cl = 12)
    ?(cwl = 6) ?(trcd = 15) ?(trp = 15) ?(tras = 34) ?(trfc = 104) ?(trefi = 3120)
    ?(banks = 8) ?(row_bytes = 2048)
    ?(capacity_bytes = 8. *. 1024. *. 1024. *. 1024.) () =
  let positive name v = if v <= 0 then invalid_arg ("Timing.make: non-positive " ^ name) in
  if tck_s <= 0. then invalid_arg "Timing.make: non-positive tck";
  positive "burst_length" burst_length;
  positive "bus_width_bits" bus_width_bits;
  positive "cl" cl;
  positive "cwl" cwl;
  positive "trcd" trcd;
  positive "trp" trp;
  positive "tras" tras;
  positive "trfc" trfc;
  positive "trefi" trefi;
  positive "banks" banks;
  positive "row_bytes" row_bytes;
  if trefi <= trfc then invalid_arg "Timing.make: trefi must exceed trfc";
  if bus_width_bits mod 8 <> 0 then invalid_arg "Timing.make: bus width must be bytes";
  if capacity_bytes <= 0. then invalid_arg "Timing.make: non-positive capacity";
  {
    tck_s;
    burst_length;
    bus_width_bits;
    cl;
    cwl;
    trcd;
    trp;
    tras;
    trfc;
    trefi;
    banks;
    row_bytes;
    capacity_bytes;
  }

let lpddr3_1600 = make ()

let burst_bytes t = t.bus_width_bits / 8 * t.burst_length

(* DDR moves two transfers per clock. *)
let burst_cycles t = max 1 (t.burst_length / 2)

let peak_bandwidth_bytes_per_s t =
  float_of_int (burst_bytes t) /. (float_of_int (burst_cycles t) *. t.tck_s)

let cycles_to_seconds t cycles = float_of_int cycles *. t.tck_s
