type t = {
  timing : Timing.t;
  mutable row : int option;
  mutable ready : int;  (* earliest cycle the next command may issue *)
  mutable activated_at : int;  (* cycle of the last ACT, for tRAS *)
}

type outcome = {
  issue_cycle : int;
  data_cycle : int;
  row_hit : bool;
  activated : bool;
  precharged : bool;
}

let create timing = { timing; row = None; ready = 0; activated_at = min_int / 2 }

let open_row t = t.row

let block_until t cycle = t.ready <- Int.max t.ready cycle

let stream_hits t n = t.ready <- t.ready + (n * Timing.burst_cycles t.timing)

let access t ~now ~row ~write =
  if row < 0 then invalid_arg "Bank.access: negative row";
  let g = t.timing in
  let start = Int.max now t.ready in
  let cas_latency = if write then g.Timing.cwl else g.Timing.cl in
  match t.row with
  | Some open_row when open_row = row ->
    (* Row hit: column command only. *)
    let data_cycle = start + cas_latency in
    t.ready <- start + Timing.burst_cycles g;
    { issue_cycle = start; data_cycle; row_hit = true; activated = false; precharged = false }
  | current ->
    let precharged = current <> None in
    (* Respect tRAS before precharging an open row. *)
    let pre_at =
      if precharged then Int.max start (t.activated_at + g.Timing.tras) else start
    in
    let act_at = if precharged then pre_at + g.Timing.trp else pre_at in
    let cas_at = act_at + g.Timing.trcd in
    let data_cycle = cas_at + cas_latency in
    t.row <- Some row;
    t.activated_at <- act_at;
    t.ready <- cas_at + Timing.burst_cycles g;
    { issue_cycle = cas_at; data_cycle; row_hit = false; activated = true; precharged }
