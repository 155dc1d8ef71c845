(** Memory controller: expands bulk trace records into bursts, drives the
    per-bank state machines, arbitrates the shared data bus and schedules
    refresh windows.

    The model is throughput-oriented: requests are replayed back-to-back
    (the queue is never empty), which matches how the compiler uses DRAM —
    bulk weight and activation streams whose cost is bandwidth-bound.

    {b Streak replay.}  Within a record, consecutive bursts that share a
    (bank, row) form a streak: up to [row_bytes / burst_bytes] bursts
    under [Row_interleaved], one burst under [Bank_interleaved].  The
    first burst of a streak takes the general step: refresh check, bank
    access, data-bus arbitration.  After any burst, [now] is its issue
    cycle, its bank is ready [bc = burst_cycles] later and the data bus
    frees as its data ends.  A further burst to the same bank and the same
    open row, of the same kind (read or write), with no refresh due
    ([now < next_refresh]), therefore issues exactly [bc] later, starts on
    the bus as the previous data ends (so it repeats that burst's bus
    stall) and ends [bc] later.  The remaining [n] bursts of a streak are
    replayed [k = min n ⌈(next_refresh - now) / bc⌉] at a time; the burst
    that finds a refresh due takes the general step, which issues at most
    one refresh per burst.  The stats are identical, field for field, to
    replaying every burst through the general step. *)

type address_mapping =
  | Row_interleaved
      (** Sequential bursts stream across a full row, then move to the next
          bank — maximal row-buffer hits for bulk transfers (default). *)
  | Bank_interleaved
      (** Sequential bursts rotate across banks first — activates overlap,
          helping short or strided transfers at the cost of more open rows. *)

type energy_model = {
  activate_j : float;  (** Per ACT command. *)
  read_burst_j : float;  (** Per read burst (includes IO). *)
  write_burst_j : float;
  refresh_j : float;  (** Per all-bank refresh. *)
  background_w : float;  (** Standby power while the trace executes. *)
}

val default_energy : energy_model

type stats = {
  cycles : int;  (** Memory cycles from first command to last data beat. *)
  seconds : float;
  bytes : float;
  reads : int;  (** Burst count. *)
  writes : int;
  row_hits : int;
  row_misses : int;
  activates : int;
  refreshes : int;
  bus_stall_cycles : int;
      (** Cycles bursts spent waiting for the shared data bus after their
          bank was ready. *)
  energy_j : float;
  background_j : float;
}

val row_hit_rate : stats -> float
(** Hits over total bursts; 0 on an empty trace. *)

val effective_bandwidth : stats -> float
(** Bytes per second over the busy window; 0 on an empty trace. *)

val run :
  ?timing:Timing.t ->
  ?energy:energy_model ->
  ?mapping:address_mapping ->
  Trace.record list ->
  stats
(** Replay a trace.  Raises [Invalid_argument] if a record exceeds the
    device capacity. *)
