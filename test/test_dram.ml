(* Tests for the LPDDR3 model: timing, bank state machine, controller,
   analytic approximations. *)

open Compass_dram

let g = Timing.lpddr3_1600

(* Timing *)

let test_burst_geometry () =
  Alcotest.(check int) "32 B bursts" 32 (Timing.burst_bytes g);
  Alcotest.(check int) "4 cycles" 4 (Timing.burst_cycles g)

let test_peak_bandwidth () =
  Alcotest.(check (float 1e6)) "6.4 GB/s" 6.4e9 (Timing.peak_bandwidth_bytes_per_s g)

let test_timing_validation () =
  Alcotest.(check bool) "zero banks" true
    (try
       ignore (Timing.make ~banks:0 ());
       false
     with Invalid_argument _ -> true)

let test_trefi_must_exceed_trfc () =
  let rejects ~trfc ~trefi =
    match Timing.make ~trfc ~trefi () with
    | _ -> false
    | exception Invalid_argument msg ->
      msg = "Timing.make: trefi must exceed trfc"
  in
  Alcotest.(check bool) "trefi = trfc" true (rejects ~trfc:104 ~trefi:104);
  Alcotest.(check bool) "trefi < trfc" true (rejects ~trfc:104 ~trefi:50);
  Alcotest.(check int) "trefi > trfc accepted" 105
    (Timing.make ~trfc:104 ~trefi:105 ()).Timing.trefi

(* Bank *)

let test_bank_first_access_is_miss () =
  let b = Bank.create g in
  let o = Bank.access b ~now:0 ~row:3 ~write:false in
  Alcotest.(check bool) "miss" false o.Bank.row_hit;
  Alcotest.(check bool) "activated" true o.Bank.activated;
  Alcotest.(check bool) "no precharge needed" false o.Bank.precharged;
  Alcotest.(check int) "open row" 3
    (match Bank.open_row b with Some r -> r | None -> -1)

let test_bank_row_hit () =
  let b = Bank.create g in
  let first = Bank.access b ~now:0 ~row:3 ~write:false in
  let second = Bank.access b ~now:first.Bank.issue_cycle ~row:3 ~write:false in
  Alcotest.(check bool) "hit" true second.Bank.row_hit;
  Alcotest.(check bool) "hit is faster" true
    (second.Bank.data_cycle - second.Bank.issue_cycle
    < first.Bank.data_cycle - first.Bank.issue_cycle + 1)

let test_bank_conflict_precharges () =
  let b = Bank.create g in
  let _ = Bank.access b ~now:0 ~row:1 ~write:false in
  let o = Bank.access b ~now:100 ~row:2 ~write:false in
  Alcotest.(check bool) "precharged" true o.Bank.precharged;
  Alcotest.(check bool) "miss" false o.Bank.row_hit;
  (* PRE + ACT + CAS. *)
  Alcotest.(check bool) "full penalty" true
    (o.Bank.data_cycle >= 100 + g.Timing.trp + g.Timing.trcd + g.Timing.cl)

let test_bank_tras_respected () =
  let b = Bank.create g in
  let first = Bank.access b ~now:0 ~row:1 ~write:false in
  (* Immediately conflicting access: precharge cannot happen before
     activation + tRAS. *)
  let o = Bank.access b ~now:first.Bank.issue_cycle ~row:2 ~write:false in
  Alcotest.(check bool) "tRAS enforced" true
    (o.Bank.data_cycle
    >= g.Timing.tras + g.Timing.trp + g.Timing.trcd + g.Timing.cl)

let test_bank_negative_row () =
  let b = Bank.create g in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Bank.access b ~now:0 ~row:(-1) ~write:false);
       false
     with Invalid_argument _ -> true)

(* Trace *)

let test_trace_constructors () =
  let r = Trace.read ~tag:"w" ~addr:64 ~bytes:128 () in
  Alcotest.(check bool) "read kind" true (r.Trace.kind = Trace.Read);
  Alcotest.(check bool) "bad bytes" true
    (try
       ignore (Trace.write ~addr:0 ~bytes:0 ());
       false
     with Invalid_argument _ -> true)

let test_trace_totals () =
  let records =
    [ Trace.read ~addr:0 ~bytes:100 (); Trace.write ~addr:512 ~bytes:50 () ]
  in
  Alcotest.(check (float 1e-9)) "total" 150. (Trace.total_bytes records);
  Alcotest.(check (float 1e-9)) "reads" 100. (Trace.read_bytes records);
  Alcotest.(check (float 1e-9)) "writes" 50. (Trace.write_bytes records)

let test_trace_lines () =
  let lines =
    Trace.to_lines [ Trace.read ~tag:"x" ~addr:0x40 ~bytes:32 () ]
  in
  Alcotest.(check string) "format" "0x00000040 READ 32 x" lines

let test_trace_of_lines_roundtrip () =
  let records =
    [
      Trace.read ~tag:"weights:P0" ~addr:0 ~bytes:4096 ();
      Trace.write ~tag:"act:conv1" ~addr:65536 ~bytes:128 ();
      Trace.read ~addr:123456 ~bytes:32 ();
    ]
  in
  match Trace.of_lines (Trace.to_lines records) with
  | Ok parsed ->
    Alcotest.(check int) "count" 3 (List.length parsed);
    List.iter2
      (fun a b ->
        Alcotest.(check bool) "kind" true (a.Trace.kind = b.Trace.kind);
        Alcotest.(check int) "addr" a.Trace.addr b.Trace.addr;
        Alcotest.(check int) "bytes" a.Trace.bytes b.Trace.bytes;
        Alcotest.(check string) "tag" a.Trace.tag b.Trace.tag)
      records parsed
  | Error line -> Alcotest.fail ("unexpected parse error: " ^ line)

let test_trace_of_lines_comments_and_errors () =
  (match Trace.of_lines "# header\n\n0x0 READ 64 x\n" with
  | Ok [ r ] -> Alcotest.(check int) "bytes" 64 r.Trace.bytes
  | _ -> Alcotest.fail "expected one record");
  (match Trace.of_lines "0x0 NUKE 64\n" with
  | Error line -> Alcotest.(check string) "offending line" "0x0 NUKE 64" line
  | Ok _ -> Alcotest.fail "bad kind accepted");
  match Trace.of_lines "0x0 READ zero\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad size accepted"

(* Controller *)

let test_streaming_read () =
  let stats = Dram.simulate [ Trace.read ~tag:"s" ~addr:0 ~bytes:(1 lsl 20) () ] in
  Alcotest.(check int) "32768 bursts" 32768 stats.Controller.reads;
  Alcotest.(check bool) "high row-hit rate" true (Controller.row_hit_rate stats > 0.9);
  let bw = Controller.effective_bandwidth stats in
  Alcotest.(check bool) "within peak" true (bw <= Timing.peak_bandwidth_bytes_per_s g);
  Alcotest.(check bool) "near peak for streams" true
    (bw >= 0.75 *. Timing.peak_bandwidth_bytes_per_s g)

let test_random_access_slower () =
  let rng = Compass_util.Rng.create 5 in
  let stream = [ Trace.read ~addr:0 ~bytes:(256 * 32) () ] in
  let random =
    List.init 256 (fun _ ->
        Trace.read ~addr:(Compass_util.Rng.int rng 4096 * 2048) ~bytes:32 ())
  in
  let s1 = Dram.simulate stream in
  let s2 = Dram.simulate random in
  Alcotest.(check bool) "random has more misses" true
    (Controller.row_hit_rate s2 < Controller.row_hit_rate s1);
  Alcotest.(check bool) "random is slower" true
    (Controller.effective_bandwidth s2 < Controller.effective_bandwidth s1)

let test_refresh_happens () =
  (* A long stream must cross several tREFI windows. *)
  let stats = Dram.simulate [ Trace.read ~addr:0 ~bytes:(8 lsl 20) () ] in
  Alcotest.(check bool) "refreshes counted" true (stats.Controller.refreshes > 0)

let test_write_energy_higher_than_read () =
  let r = Dram.simulate [ Trace.read ~addr:0 ~bytes:65536 () ] in
  let w = Dram.simulate [ Trace.write ~addr:0 ~bytes:65536 () ] in
  Alcotest.(check bool) "write energy higher" true
    (w.Controller.energy_j > r.Controller.energy_j)

let test_capacity_guard () =
  Alcotest.(check bool) "beyond capacity" true
    (try
       ignore (Dram.simulate [ Trace.read ~addr:(1 lsl 62) ~bytes:64 () ]);
       false
     with Invalid_argument _ -> true)

let test_empty_trace () =
  let stats = Dram.simulate [] in
  Alcotest.(check int) "no cycles" 0 stats.Controller.cycles;
  Alcotest.(check (float 0.)) "hit rate zero" 0. (Controller.row_hit_rate stats)

let test_mapping_policies_agree_on_totals () =
  let trace = [ Trace.read ~addr:0 ~bytes:(512 * 1024) () ] in
  let row = Dram.simulate ~mapping:Controller.Row_interleaved trace in
  let bank = Dram.simulate ~mapping:Controller.Bank_interleaved trace in
  Alcotest.(check (float 0.)) "same bytes" row.Controller.bytes bank.Controller.bytes;
  Alcotest.(check int) "same bursts" row.Controller.reads bank.Controller.reads;
  Alcotest.(check bool) "both positive time" true
    (row.Controller.seconds > 0. && bank.Controller.seconds > 0.)

let test_bank_interleaved_helps_strided () =
  (* Row-size strides thrash a single row buffer under row-interleaving but
     rotate cleanly under bank-interleaving. *)
  let stride = g.Timing.row_bytes * g.Timing.banks in
  let records = List.init 64 (fun i -> Trace.read ~addr:(i * stride) ~bytes:32 ()) in
  let row = Dram.simulate ~mapping:Controller.Row_interleaved records in
  let bank = Dram.simulate ~mapping:Controller.Bank_interleaved records in
  Alcotest.(check bool) "row-interleaved thrashes one bank" true
    (Controller.row_hit_rate row <= Controller.row_hit_rate bank +. 1e-9);
  Alcotest.(check bool) "bank rotation is not slower" true
    (bank.Controller.seconds <= row.Controller.seconds +. 1e-9)

(* Streak replay vs one burst per record.  The controller replays a run of
   row hits in one step; a record no longer than one burst never forms such
   a run, so replaying every record split at burst boundaries is the
   burst-by-burst oracle. *)

let split_at_bursts timing records =
  let size = Timing.burst_bytes timing in
  List.concat_map
    (fun (r : Trace.record) ->
      let stop = r.Trace.addr + r.Trace.bytes in
      let rec pieces addr acc =
        if addr >= stop then List.rev acc
        else
          let next = Int.min stop ((addr / size + 1) * size) in
          pieces next ({ r with Trace.addr; bytes = next - addr } :: acc)
      in
      pieces r.Trace.addr [])
    records

let pp_stats (s : Controller.stats) =
  Printf.sprintf
    "cycles=%d seconds=%h bytes=%h reads=%d writes=%d hits=%d misses=%d act=%d \
     ref=%d stall=%d energy=%h background=%h"
    s.Controller.cycles s.Controller.seconds s.Controller.bytes s.Controller.reads
    s.Controller.writes s.Controller.row_hits s.Controller.row_misses
    s.Controller.activates s.Controller.refreshes s.Controller.bus_stall_cycles
    s.Controller.energy_j s.Controller.background_j

let check_matches_oracle ?(timing = g) ?(mapping = Controller.Row_interleaved) name
    records =
  let run rs = pp_stats (Controller.run ~timing ~mapping rs) in
  Alcotest.(check string) name (run (split_at_bursts timing records)) (run records)

let test_split_keeps_bytes () =
  let records = [ Trace.read ~addr:20 ~bytes:100 (); Trace.write ~addr:64 ~bytes:32 () ] in
  let split = split_at_bursts g records in
  Alcotest.(check (list (pair int int)))
    "pieces"
    [ (20, 12); (32, 32); (64, 32); (96, 24); (64, 32) ]
    (List.map (fun (r : Trace.record) -> (r.Trace.addr, r.Trace.bytes)) split);
  Alcotest.(check (float 0.)) "bytes" (Trace.total_bytes records) (Trace.total_bytes split)

let test_streak_meets_refresh_exactly () =
  (* The first burst opens row 0 and issues at tRCD = 15; hits follow every
     4 cycles, so the sixth streak burst finds now = 35 = next_refresh. *)
  let timing = Timing.make ~trfc:10 ~trefi:35 () in
  let records = [ Trace.read ~addr:0 ~bytes:(64 * 32) () ] in
  let stats = Controller.run ~timing records in
  Alcotest.(check int) "reads" 64 stats.Controller.reads;
  Alcotest.(check bool) "refreshes inside the run" true (stats.Controller.refreshes > 1);
  check_matches_oracle ~timing "refresh at now = next_refresh" records

let test_write_after_read_same_row () =
  let records = [ Trace.read ~addr:0 ~bytes:256 (); Trace.write ~addr:256 ~bytes:256 () ] in
  let stats = Controller.run records in
  Alcotest.(check int) "one activate" 1 stats.Controller.activates;
  Alcotest.(check int) "hits" 15 stats.Controller.row_hits;
  check_matches_oracle "read then write" records;
  (* Writes see the shorter CAS latency, so their data waits on the bus. *)
  Alcotest.(check bool) "write bursts stall" true (stats.Controller.bus_stall_cycles > 0)

let test_record_continues_row () =
  let records =
    [
      Trace.read ~addr:0 ~bytes:100 ();
      Trace.read ~addr:100 ~bytes:900 ();
      Trace.read ~addr:1000 ~bytes:3000 ();
    ]
  in
  let stats = Controller.run records in
  Alcotest.(check int) "two rows opened" 2 stats.Controller.activates;
  check_matches_oracle "continued row" records;
  check_matches_oracle ~mapping:Controller.Bank_interleaved "bank interleaved" records

let gen_timing =
  let open QCheck.Gen in
  let* burst_length = int_range 1 16 in
  let* bus_bytes = oneofl [ 1; 2; 4; 8 ] in
  let burst = bus_bytes * burst_length in
  let* row_bytes = int_range burst (64 * burst) in
  let* cl = int_range 1 20 in
  let* cwl = int_range 1 19 in
  let cwl = if cwl >= cl then cwl + 1 else cwl in
  let* trcd = int_range 1 30 in
  let* trp = int_range 1 30 in
  let* tras = int_range 1 60 in
  let* trfc = int_range 1 40 in
  (* Short intervals so runs of hits cross refresh deadlines. *)
  let* trefi = map (fun extra -> trfc + extra) (int_range 1 200) in
  let+ banks = int_range 1 8 in
  Timing.make ~burst_length ~bus_width_bits:(8 * bus_bytes) ~cl ~cwl ~trcd ~trp ~tras
    ~trfc ~trefi ~banks ~row_bytes ()

(* Records either continue the previous one or jump; both kinds. *)
let gen_records =
  let open QCheck.Gen in
  let* n = int_range 1 12 in
  let rec go n next acc =
    if n = 0 then return (List.rev acc)
    else
      let* continue = bool in
      let* jump = int_range 0 20_000 in
      let* bytes = int_range 1 3_000 in
      let* write = bool in
      let addr = if continue then next else jump in
      let r = if write then Trace.write ~addr ~bytes () else Trace.read ~addr ~bytes () in
      go (n - 1) (addr + bytes) (r :: acc)
  in
  go n 0 []

let prop_streaks_match_bursts =
  let gen =
    QCheck.Gen.(
      triple
        (frequency [ (1, return g); (3, gen_timing) ])
        (oneofl [ Controller.Row_interleaved; Controller.Bank_interleaved ])
        gen_records)
  in
  let print (timing, mapping, records) =
    Printf.sprintf "trefi=%d trfc=%d banks=%d row=%d burst=%d %s\n%s" timing.Timing.trefi
      timing.Timing.trfc timing.Timing.banks timing.Timing.row_bytes
      (Timing.burst_bytes timing)
      (match mapping with
      | Controller.Row_interleaved -> "row"
      | Controller.Bank_interleaved -> "bank")
      (Trace.to_lines records)
  in
  QCheck.Test.make ~name:"streak replay = burst-by-burst replay" ~count:300
    (QCheck.make ~print gen)
    (fun (timing, mapping, records) ->
      let run rs = Controller.run ~timing ~mapping rs in
      run records = run (split_at_bursts timing records))

(* Golden: the full DRAM stats of one zoo plan, as replayed burst by burst. *)
let test_golden_squeezenet_s16_greedy () =
  let open Compass_core in
  let plan =
    Compiler.compile ~model:(Compass_nn.Models.squeezenet ())
      ~chip:Compass_arch.Config.chip_s ~batch:16 Compiler.Greedy
  in
  let s = (Compiler.measure plan).Compiler.dram in
  Alcotest.(check string) "stats"
    "cycles=259742 seconds=0x1.5472f3e86f959p-12 bytes=0x1.be4ap+20 reads=56875 \
     writes=250 hits=56231 misses=894 act=894 ref=83 stall=0 \
     energy=0x1.21d0f9f1e2caap-11 background=0x1.105bf6538c77bp-15"
    (pp_stats s)

(* Analytic approximations vs the bank-accurate model. *)

let test_analytic_time_close () =
  let bytes = 4 lsl 20 in
  let stats = Dram.simulate [ Trace.read ~addr:0 ~bytes () ] in
  let analytic = Dram.analytic_seconds (float_of_int bytes) in
  let ratio = analytic /. stats.Controller.seconds in
  Alcotest.(check bool)
    (Printf.sprintf "within 30%% (ratio %.2f)" ratio)
    true
    (ratio > 0.7 && ratio < 1.3)

let test_analytic_energy_close () =
  let bytes = 4 lsl 20 in
  let stats = Dram.simulate [ Trace.read ~addr:0 ~bytes () ] in
  let analytic = Dram.analytic_energy_j (float_of_int bytes) in
  let ratio = analytic /. stats.Controller.energy_j in
  Alcotest.(check bool)
    (Printf.sprintf "within 40%% (ratio %.2f)" ratio)
    true
    (ratio > 0.6 && ratio < 1.4)

let test_analytic_zero () =
  Alcotest.(check (float 0.)) "zero bytes" 0. (Dram.analytic_seconds 0.)

(* Properties *)

let prop_latency_at_least_bandwidth_bound =
  QCheck.Test.make ~name:"latency >= data-bus bound" ~count:50
    QCheck.(int_range 32 (1 lsl 22))
    (fun bytes ->
      let stats = Dram.simulate [ Trace.read ~addr:0 ~bytes () ] in
      let bursts = (bytes + 31) / 32 in
      stats.Controller.cycles >= bursts * Timing.burst_cycles g)

let prop_energy_monotone_in_bytes =
  QCheck.Test.make ~name:"energy monotone in bytes" ~count:50
    QCheck.(int_range 64 (1 lsl 20))
    (fun bytes ->
      let e1 = (Dram.simulate [ Trace.read ~addr:0 ~bytes () ]).Controller.energy_j in
      let e2 =
        (Dram.simulate [ Trace.read ~addr:0 ~bytes:(2 * bytes) () ]).Controller.energy_j
      in
      e2 > e1)

let prop_hit_rate_bounded =
  QCheck.Test.make ~name:"row-hit rate in [0,1]" ~count:50
    QCheck.(pair (int_range 0 100000) (int_range 32 65536))
    (fun (addr, bytes) ->
      let addr = addr * 64 in
      let stats = Dram.simulate [ Trace.read ~addr ~bytes () ] in
      let r = Controller.row_hit_rate stats in
      r >= 0. && r <= 1.)

let () =
  Alcotest.run "compass_dram"
    [
      ( "timing",
        [
          Alcotest.test_case "burst geometry" `Quick test_burst_geometry;
          Alcotest.test_case "peak bandwidth" `Quick test_peak_bandwidth;
          Alcotest.test_case "validation" `Quick test_timing_validation;
          Alcotest.test_case "trefi must exceed trfc" `Quick test_trefi_must_exceed_trfc;
        ] );
      ( "bank",
        [
          Alcotest.test_case "first access misses" `Quick test_bank_first_access_is_miss;
          Alcotest.test_case "row hit" `Quick test_bank_row_hit;
          Alcotest.test_case "conflict precharges" `Quick test_bank_conflict_precharges;
          Alcotest.test_case "tRAS respected" `Quick test_bank_tras_respected;
          Alcotest.test_case "negative row" `Quick test_bank_negative_row;
        ] );
      ( "trace",
        [
          Alcotest.test_case "constructors" `Quick test_trace_constructors;
          Alcotest.test_case "totals" `Quick test_trace_totals;
          Alcotest.test_case "lines" `Quick test_trace_lines;
          Alcotest.test_case "of_lines roundtrip" `Quick test_trace_of_lines_roundtrip;
          Alcotest.test_case "of_lines comments/errors" `Quick
            test_trace_of_lines_comments_and_errors;
        ] );
      ( "controller",
        [
          Alcotest.test_case "streaming read" `Quick test_streaming_read;
          Alcotest.test_case "random slower" `Quick test_random_access_slower;
          Alcotest.test_case "refresh happens" `Quick test_refresh_happens;
          Alcotest.test_case "write energy higher" `Quick
            test_write_energy_higher_than_read;
          Alcotest.test_case "capacity guard" `Quick test_capacity_guard;
          Alcotest.test_case "empty trace" `Quick test_empty_trace;
          Alcotest.test_case "mapping policies totals" `Quick
            test_mapping_policies_agree_on_totals;
          Alcotest.test_case "bank interleave strided" `Quick
            test_bank_interleaved_helps_strided;
          QCheck_alcotest.to_alcotest prop_latency_at_least_bandwidth_bound;
          QCheck_alcotest.to_alcotest prop_energy_monotone_in_bytes;
          QCheck_alcotest.to_alcotest prop_hit_rate_bounded;
        ] );
      ( "streak",
        [
          Alcotest.test_case "split keeps bytes" `Quick test_split_keeps_bytes;
          Alcotest.test_case "refresh at now = next_refresh" `Quick
            test_streak_meets_refresh_exactly;
          Alcotest.test_case "write after read, same row" `Quick
            test_write_after_read_same_row;
          Alcotest.test_case "record continues row" `Quick test_record_continues_row;
          QCheck_alcotest.to_alcotest prop_streaks_match_bursts;
          Alcotest.test_case "golden squeezenet-S-16 greedy" `Quick
            test_golden_squeezenet_s16_greedy;
        ] );
      ( "analytic",
        [
          Alcotest.test_case "time close to model" `Quick test_analytic_time_close;
          Alcotest.test_case "energy close to model" `Quick test_analytic_energy_close;
          Alcotest.test_case "zero bytes" `Quick test_analytic_zero;
        ] );
    ]
