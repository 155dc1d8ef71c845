(* Unit tests for the benchmark's statistics helpers. *)

open Perfbench

let float = Alcotest.float 1e-12

let tail_rank () =
  let xs = List.init 40 (fun i -> float_of_int (i + 1)) in
  let t = Option.get (Bstats.tail xs) in
  (* 40 samples: 30 is the value with exactly ten larger ones, p75. *)
  Alcotest.check float "value" 30. t.Bstats.value;
  Alcotest.check float "percentile" 75. t.Bstats.percentile;
  Alcotest.(check int) "samples" 40 t.Bstats.samples;
  let shuffled = List.rev xs in
  Alcotest.check float "order-free" 30. (Option.get (Bstats.tail shuffled)).Bstats.value;
  let eleven = Option.get (Bstats.tail (List.init 11 float_of_int)) in
  Alcotest.check float "smallest with ten beyond" 0. eleven.Bstats.value;
  Alcotest.check float "its percentile" (100. /. 11.) eleven.Bstats.percentile;
  Alcotest.(check bool)
    "ten samples have no tail" true
    (Bstats.tail (List.init 10 float_of_int) = None)

let median () =
  Alcotest.check float "odd" 2. (Bstats.median [ 3.; 1.; 2. ]);
  Alcotest.check float "even" 2.5 (Bstats.median [ 4.; 1.; 3.; 2. ])

let tau xs ys = Bstats.kendall_tau (Array.of_list xs) (Array.of_list ys)
let some_float = Alcotest.(option (float 1e-12))

let kendall () =
  Alcotest.check some_float "same order" (Some 1.) (tau [ 1.; 2.; 3.; 4. ] [ 10.; 20.; 30.; 40. ]);
  Alcotest.check some_float "reversed" (Some (-1.)) (tau [ 1.; 2.; 3.; 4. ] [ 4.; 3.; 2.; 1. ]);
  (* One swapped pair of six: (5 - 1) / 6. *)
  Alcotest.check some_float "one swap" (Some (4. /. 6.))
    (tau [ 1.; 2.; 3.; 4. ] [ 1.; 2.; 4.; 3. ]);
  (* Ties in x: pairs 6, ties_x 1, all five others concordant:
     5 / sqrt (5 * 6). *)
  Alcotest.check some_float "tie in one ranking"
    (Some (5. /. sqrt 30.))
    (tau [ 1.; 1.; 2.; 3. ] [ 1.; 2.; 3.; 4. ]);
  (* Three items tied in both rankings, the fourth above them in both:
     3 concordant of 3 untied pairs on each side. *)
  Alcotest.check some_float "shared ties" (Some 1.) (tau [ 1.; 1.; 1.; 2. ] [ 5.; 5.; 5.; 9. ]);
  Alcotest.check some_float "all tied" None (tau [ 1.; 1.; 1. ] [ 1.; 2.; 3. ])

let geomean () =
  Alcotest.check float "two values" 4. (Compass_util.Stats.geomean [ 2.; 8. ]);
  Alcotest.check float "ratios and inverses" 1. (Compass_util.Stats.geomean [ 0.5; 2.; 4.; 0.25 ]);
  Alcotest.check_raises "non-positive" (Invalid_argument "Stats.geomean: non-positive value")
    (fun () -> ignore (Compass_util.Stats.geomean [ 1.; 0. ]))

let () =
  Alcotest.run "bstats"
    [
      ( "bstats",
        [
          Alcotest.test_case "tail rank" `Quick tail_rank;
          Alcotest.test_case "median" `Quick median;
          Alcotest.test_case "kendall tau-b" `Quick kendall;
          Alcotest.test_case "geomean" `Quick geomean;
        ] );
    ]
