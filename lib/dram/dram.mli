(** Facade over the LPDDR3 model.

    [simulate] is the trace-accurate path (the DRAMsim3 substitute);
    [analytic_*] expose the closed-form streaming approximations used inside
    the GA fitness loop.  Replay itself is cheap: it takes one row streak
    per step, 30–60 us per streamed MB (bench [micro],
    [dram/replay_1MB]) and about 800 M bursts per host second over the
    Fig. 6/8 grid's plans (perfbench [simulate_grid --trace 1]), both on a
    2-vCPU x86-64 host.  A trace only exists once a plan is scheduled and
    simulated, though, which costs more than the replay and far more than
    the closed form, so the fitness loop keeps the closed form.  Tests
    assert the two agree within a small factor on streaming workloads. *)

val simulate :
  ?timing:Timing.t ->
  ?energy:Controller.energy_model ->
  ?mapping:Controller.address_mapping ->
  Trace.record list ->
  Controller.stats
(** Replay a bulk trace through the bank-state controller. *)

val analytic_seconds : ?timing:Timing.t -> float -> float
(** Streaming transfer time: request overhead + bytes at ~90% of the peak
    data-bus bandwidth (row-miss gaps cost about a tenth on the streaming
    mapping). *)

val analytic_energy_j :
  ?timing:Timing.t -> ?energy:Controller.energy_model -> float -> float
(** Streaming energy: per-burst read energy plus amortized activates. *)

val analytic_energy_per_byte_j : ?timing:Timing.t -> ?energy:Controller.energy_model -> unit -> float

val pp_stats : Format.formatter -> Controller.stats -> unit
