(* Tests of the benchmark's own logic: percentiles, span self time,
   metric names and the trace and result formats. *)

open Perfbench

let check_float msg expected got =
  Alcotest.(check (float 1e-9)) msg expected got

let test_percentile_rule () =
  let sup n = Pstats.supported_percentile ~n ~want:99. in
  check_float "1000 samples support p99" 99. (sup 1000);
  check_float "999 samples: p99 has only 9 beyond" 95. (sup 999);
  check_float "200 samples support p95" 95. (sup 200);
  check_float "199 samples fall to p90" 90. (sup 199);
  check_float "100 samples support p90" 90. (sup 100);
  check_float "40 samples support p75" 75. (sup 40);
  check_float "20 samples support the median" 50. (sup 20);
  check_float "fewer samples still report the median" 50. (sup 5);
  check_float "never above the wanted percentile" 95.
    (Pstats.supported_percentile ~n:100_000 ~want:95.);
  Alcotest.(check int) "ten beyond p99 of 1000" 10 (Pstats.beyond ~n:1000 99.);
  Alcotest.(check int) "nine beyond p99 of 999" 9 (Pstats.beyond ~n:999 99.)

let test_percentile_values () =
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  check_float "nearest-rank p99" 990. (Pstats.percentile a 99.);
  check_float "nearest-rank p50" 500. (Pstats.percentile a 50.);
  let p, v = Pstats.tail a ~want:99. in
  check_float "tail percentile" 99. p;
  check_float "tail value" 990. v;
  check_float "median is a measured value" 2. (Pstats.median [ 3.; 1.; 2.; 4. ]);
  check_float "odd median" 5. (Pstats.median [ 9.; 5.; 1. ])

(* parent [0, 10] with children A [1, 4] and B [3, 6] (overlapping) and a
   grandchild under A at [2, 3]. *)
let nested () =
  let r = Spans.create ~enabled:true in
  let p = Spans.record r "parent" ~t0:0. ~t1:10. in
  let a = Spans.record r ~parent:p "child" ~t0:1. ~t1:4. in
  ignore (Spans.record r ~parent:p "child" ~t0:3. ~t1:6.);
  ignore (Spans.record r ~parent:a "grandchild" ~t0:2. ~t1:3.);
  ignore (Spans.record r "other-root" ~t0:12. ~t1:14.);
  r

let test_self_time () =
  let all = Spans.spans (nested ()) in
  let self name i =
    Spans.self_time all (List.nth (List.filter (fun s -> s.Spans.name = name) all) i)
  in
  check_float "parent minus the union of its children" 5. (self "parent" 0);
  check_float "child minus its grandchild" 2. (self "child" 0);
  check_float "second child" 3. (self "child" 1);
  check_float "leaf" 1. (self "grandchild" 0);
  let by_name = Spans.self_time_by_name all in
  check_float "child total" 5. (List.assoc "child" by_name);
  Alcotest.(check (list string))
    "names in first-appearance order"
    [ "parent"; "child"; "grandchild"; "other-root" ]
    (List.map fst by_name);
  (* The roots cover 12 s; the siblings' shared second [3, 4] is self
     time of both. *)
  check_float "overlapping siblings each keep their overlap" 13.
    (List.fold_left (fun a (_, v) -> a +. v) 0. by_name)

let test_disabled () =
  let r = Spans.create ~enabled:false in
  let v = Spans.with_span r "x" (fun id -> id) in
  Alcotest.(check int) "body sees no span" Spans.no_span v;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Spans.spans r))

let test_with_span_nesting () =
  let r = Spans.create ~enabled:true in
  Spans.with_span r "outer" (fun p ->
      Spans.with_span r ~parent:p "inner" (fun _ -> ()));
  match Spans.spans r with
  | [ outer; inner ] ->
      Alcotest.(check int) "inner's parent" outer.Spans.id inner.Spans.parent;
      Alcotest.(check bool) "inner inside outer" true
        (outer.Spans.t0 <= inner.Spans.t0 && inner.Spans.t1 <= outer.Spans.t1)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Report.valid_name n))
    [ "setup_s"; "nn.plan.execute_ms"; "serve.server.queue_wait_ms.p99"; "a-b"; "9x" ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (Report.valid_name n))
    [ ""; ".hidden"; "_x"; "has space"; "slash/no"; "q\"uote"; "é"; String.make 65 'a' ];
  Alcotest.check_raises "result_line rejects a bad name"
    (Invalid_argument "Report.result_line: invalid metric name bad name") (fun () ->
      ignore
        (Report.result_line ~correct:true ~attempted:1 ~failed:0
           [ { Report.name = "bad name"; value = 1.; unit = "s" } ]))

let test_result_line () =
  let line =
    Report.result_line ~correct:true ~attempted:3 ~failed:0
      [
        { Report.name = "latency_ms"; value = 1.2034567890123; unit = "ms" };
        { Report.name = "setup_s"; value = 0.5; unit = "s" };
      ]
  in
  match Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok (Json.Obj fields as j) ->
      Alcotest.(check (list string))
        "exactly the four keys"
        [ "correct"; "attempted"; "failed"; "metrics" ]
        (List.map fst fields);
      Alcotest.(check (option (float 0.)))
        "every digit kept" (Some 1.2034567890123)
        (Option.bind (Json.path [ "metrics"; "latency_ms"; "value" ] j) Json.to_float)
  | Ok _ -> Alcotest.fail "not an object"

let test_chrome_roundtrip () =
  let json =
    Spans.to_chrome_json ~lanes:[ (0, "harness \"main\"") ] (Spans.spans (nested ()))
  in
  match Json.parse json with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.Arr events) ->
          let complete =
            List.filter (fun e -> Json.member "ph" e = Some (Json.Str "X")) events
          in
          Alcotest.(check int) "one event per span" 5 (List.length complete);
          Alcotest.(check int) "one lane name" 1 (List.length events - 5);
          let num k e = Option.bind (Json.member k e) Json.to_float in
          let first = List.hd complete in
          Alcotest.(check (option (float 1e-6))) "ts relative, in us" (Some 0.) (num "ts" first);
          Alcotest.(check (option (float 1e-6))) "dur in us" (Some 1e7) (num "dur" first);
          Alcotest.(check (option string))
            "category is the first name component" (Some "parent")
            (match Json.member "cat" first with Some (Json.Str s) -> Some s | _ -> None);
          let grandchild = List.nth complete 3 in
          Alcotest.(check (option (float 0.)))
            "parent id kept" (Some 1.)
            (Option.bind (Json.path [ "args"; "parent" ] grandchild) Json.to_float)
      | _ -> Alcotest.fail "no traceEvents array")

let test_json_parse () =
  (match Json.parse "{\"a\": [1, -2.5e3, true, null, \"x\\u0041\\n\"], \"b\": {}}" with
  | Ok j ->
      Alcotest.(check string)
        "round trip" "{\"a\":[1,-2500,true,null,\"xA\\n\"],\"b\":{}}" (Json.to_string j)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" bad) true
        (Result.is_error (Json.parse bad)))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "1 2"; "\"open"; "tru" ]

let test_slowdown () =
  let r = Hostspeed.reference_s in
  check_float "reference speed" 1. (Hostspeed.slowdown [ r ]);
  check_float "mean of the probes" 1.5 (Hostspeed.slowdown [ r; 2. *. r ]);
  Alcotest.check_raises "no probes"
    (Invalid_argument "Hostspeed.slowdown: no probes") (fun () ->
      ignore (Hostspeed.slowdown []))

(* The probe must not allocate, so that no collection runs inside it and
   what the program left on the heap cannot change its time. *)
let test_probe () =
  ignore (Hostspeed.probe ());
  let m0 = Gc.minor_words () in
  let t = Hostspeed.probe () in
  let words = Gc.minor_words () -. m0 in
  Alcotest.(check bool) "positive time" true (t > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "allocation-free (%.0f minor words)" words)
    true (words < 16.);
  Alcotest.(check int) "probes" 3 (List.length (Hostspeed.probes 3))

let () =
  Alcotest.run "perfbench"
    [
      ( "pstats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "percentile values" `Quick test_percentile_values;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time of nested spans" `Quick test_self_time;
          Alcotest.test_case "disabled recorder" `Quick test_disabled;
          Alcotest.test_case "with_span nesting" `Quick test_with_span_nesting;
          Alcotest.test_case "chrome trace parses back" `Quick test_chrome_roundtrip;
        ] );
      ( "report",
        [
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "json parser" `Quick test_json_parse;
        ] );
      ( "hostspeed",
        [
          Alcotest.test_case "slowdown" `Quick test_slowdown;
          Alcotest.test_case "probe" `Quick test_probe;
        ] );
    ]
