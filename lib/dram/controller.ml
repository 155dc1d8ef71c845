type address_mapping =
  | Row_interleaved
  | Bank_interleaved

type energy_model = {
  activate_j : float;
  read_burst_j : float;
  write_burst_j : float;
  refresh_j : float;
  background_w : float;
}

let default_energy =
  {
    activate_j = 2e-9;
    read_burst_j = 9e-9;
    write_burst_j = 10e-9;
    refresh_j = 50e-9;
    background_w = 0.1;
  }

type stats = {
  cycles : int;
  seconds : float;
  bytes : float;
  reads : int;
  writes : int;
  row_hits : int;
  row_misses : int;
  activates : int;
  refreshes : int;
  bus_stall_cycles : int;
  energy_j : float;
  background_j : float;
}

let row_hit_rate s =
  let total = s.row_hits + s.row_misses in
  if total = 0 then 0. else float_of_int s.row_hits /. float_of_int total

let effective_bandwidth s = if s.seconds <= 0. then 0. else s.bytes /. s.seconds

type cursor = {
  timing : Timing.t;
  mapping : address_mapping;
  banks : Bank.t array;
  row_bursts : int;  (* bursts per row *)
  run_bursts : int;  (* aligned bursts replayed as one (bank, row) run *)
  mutable now : int;  (* command-issue cursor *)
  mutable data_bus_free : int;
  mutable last_data_end : int;
  mutable next_refresh : int;
  mutable reads : int;
  mutable writes : int;
  mutable row_hits : int;
  mutable row_misses : int;
  mutable activates : int;
  mutable refreshes : int;
  mutable bus_stall_cycles : int;
}

let create_cursor timing mapping =
  let row_bursts = timing.Timing.row_bytes / Timing.burst_bytes timing in
  {
    timing;
    mapping;
    banks = Array.init timing.Timing.banks (fun _ -> Bank.create timing);
    row_bursts;
    run_bursts = (match mapping with Row_interleaved -> row_bursts | Bank_interleaved -> 1);
    now = 0;
    data_bus_free = 0;
    last_data_end = 0;
    next_refresh = timing.Timing.trefi;
    reads = 0;
    writes = 0;
    row_hits = 0;
    row_misses = 0;
    activates = 0;
    refreshes = 0;
    bus_stall_cycles = 0;
  }

(* Address mapping policies (DRAMsim3's address-mapping strings). *)
let locate cur burst_index =
  let g = cur.timing in
  let row_bursts = cur.row_bursts in
  match cur.mapping with
  | Row_interleaved ->
    (* Sequential bursts stream across a 2 KB row, then move to the next
       bank; rows change only every banks*row_bursts bursts. *)
    let bank = burst_index / row_bursts mod g.Timing.banks in
    let row = burst_index / (row_bursts * g.Timing.banks) in
    (bank, row)
  | Bank_interleaved ->
    (* Consecutive bursts rotate across banks; each bank still fills its
       row before advancing. *)
    let bank = burst_index mod g.Timing.banks in
    let within_bank = burst_index / g.Timing.banks in
    let row = within_bank / row_bursts in
    (bank, row)

(* Last burst, capped at [last], of the (bank, row) run that holds [b]. *)
let run_end cur b last =
  let n = cur.run_bursts in
  Int.min last ((((b / n) + 1) * n) - 1)

let refresh_if_due cur =
  let g = cur.timing in
  if cur.now >= cur.next_refresh then begin
    let until = cur.next_refresh + g.Timing.trfc in
    Array.iter (fun b -> Bank.block_until b until) cur.banks;
    cur.refreshes <- cur.refreshes + 1;
    cur.next_refresh <- cur.next_refresh + g.Timing.trefi
  end

let burst cur ~bank ~row ~write =
  refresh_if_due cur;
  let g = cur.timing in
  let outcome = Bank.access cur.banks.(bank) ~now:cur.now ~row ~write in
  if outcome.Bank.row_hit then cur.row_hits <- cur.row_hits + 1
  else cur.row_misses <- cur.row_misses + 1;
  if outcome.Bank.activated then cur.activates <- cur.activates + 1;
  if write then cur.writes <- cur.writes + 1 else cur.reads <- cur.reads + 1;
  let data_start = Int.max outcome.Bank.data_cycle cur.data_bus_free in
  (* Cycles the burst's data sat ready behind an occupied data bus. *)
  cur.bus_stall_cycles <- cur.bus_stall_cycles + (data_start - outcome.Bank.data_cycle);
  let data_end = data_start + Timing.burst_cycles g in
  cur.data_bus_free <- data_end;
  cur.last_data_end <- Int.max cur.last_data_end data_end;
  (* Next command may issue while this data moves; banks stay the limiter. *)
  cur.now <- Int.max cur.now outcome.Bank.issue_cycle

(* [n] more bursts of the same kind to the row the last burst left open in
   [bank].  Right after that burst, [now] is its issue cycle, the bank is
   ready [bc] later and the data bus frees when its data ends, so every
   further hit issues [bc] later, starts on the bus as the previous data
   ends (same stall) and ends [bc] later.  That holds until a refresh
   falls due; the burst that meets it takes the general step. *)
let rec streak cur ~bank ~row ~write n =
  if n > 0 then
    if cur.now >= cur.next_refresh then begin
      burst cur ~bank ~row ~write;
      streak cur ~bank ~row ~write (n - 1)
    end
    else begin
      let g = cur.timing in
      let bc = Timing.burst_cycles g in
      let k = Int.min n ((cur.next_refresh - cur.now + bc - 1) / bc) in
      let cas = if write then g.Timing.cwl else g.Timing.cl in
      (* The last burst's data started at [data_bus_free - bc] and was
         ready at [now + cas]. *)
      let stall = cur.data_bus_free - bc - (cur.now + cas) in
      let span = k * bc in
      cur.row_hits <- cur.row_hits + k;
      if write then cur.writes <- cur.writes + k else cur.reads <- cur.reads + k;
      cur.bus_stall_cycles <- cur.bus_stall_cycles + (k * stall);
      Bank.stream_hits cur.banks.(bank) k;
      cur.now <- cur.now + span;
      cur.data_bus_free <- cur.data_bus_free + span;
      cur.last_data_end <- cur.last_data_end + span;
      streak cur ~bank ~row ~write (n - k)
    end

let run ?(timing = Timing.lpddr3_1600) ?(energy = default_energy)
    ?(mapping = Row_interleaved) records =
  let cur = create_cursor timing mapping in
  let burst_sz = Timing.burst_bytes timing in
  let replay (r : Trace.record) =
    if float_of_int (r.Trace.addr + r.Trace.bytes) > timing.Timing.capacity_bytes then
      invalid_arg "Controller.run: record beyond device capacity";
    let first = r.Trace.addr / burst_sz in
    let last = (r.Trace.addr + r.Trace.bytes - 1) / burst_sz in
    let write = r.Trace.kind = Trace.Write in
    let b = ref first in
    while !b <= last do
      let bank, row = locate cur !b in
      let stop = run_end cur !b last in
      burst cur ~bank ~row ~write;
      streak cur ~bank ~row ~write (stop - !b);
      b := stop + 1
    done
  in
  List.iter replay records;
  let cycles = cur.last_data_end in
  let seconds = Timing.cycles_to_seconds timing cycles in
  let bytes = Trace.total_bytes records in
  let dynamic =
    (float_of_int cur.activates *. energy.activate_j)
    +. (float_of_int cur.reads *. energy.read_burst_j)
    +. (float_of_int cur.writes *. energy.write_burst_j)
    +. (float_of_int cur.refreshes *. energy.refresh_j)
  in
  let background_j = seconds *. energy.background_w in
  if Compass_util.Metrics.enabled () then begin
    let m = Compass_util.Metrics.incr in
    m ~by:cur.reads "dram.reads";
    m ~by:cur.writes "dram.writes";
    m ~by:cur.row_hits "dram.row_hits";
    m ~by:cur.row_misses "dram.row_misses";
    m ~by:cur.activates "dram.activates";
    m ~by:cur.refreshes "dram.refreshes";
    m ~by:cur.bus_stall_cycles "dram.bus_stall_cycles"
  end;
  {
    cycles;
    seconds;
    bytes;
    reads = cur.reads;
    writes = cur.writes;
    row_hits = cur.row_hits;
    row_misses = cur.row_misses;
    activates = cur.activates;
    refreshes = cur.refreshes;
    bus_stall_cycles = cur.bus_stall_cycles;
    energy_j = dynamic +. background_j;
    background_j;
  }
