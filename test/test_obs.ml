(* Tests for the observability layer: span nesting and attribution, the
   event log, the metrics registry, snapshot determinism across seeded runs, Chrome-trace
   export well-formedness, and the end-to-end tiling contract (leaf phases
   of a checkpoint sum to its critical-path duration). *)

open Simcore
open Blobcr
open Workloads

let quick = Calibration.quick_test
let mib = Size.mib
let build () = Cluster.build ~seed:7 quick

(* Minted at module init, like real instrumented modules: present in the
   schema of every snapshot below, so it cannot skew the determinism
   comparison. *)
let test_counter = Obs.Metrics.counter ~component:"test" ~name:"events"
let test_gauge = Obs.Metrics.gauge ~component:"test" ~name:"level"

let find_span run name =
  match List.find_opt (fun s -> s.Obs.Record.name = name) run.Obs.Record.spans with
  | Some s -> s
  | None -> Alcotest.failf "span %s not captured" name

(* ------------------------------------------------------------------ *)
(* Spans *)

let test_span_nesting () =
  let eng = Engine.create ~seed:1 () in
  let (), run =
    Obs.Record.capture (fun () ->
        Obs.Record.label_track eng "unit";
        let _ =
          Engine.Fiber.spawn eng ~name:"worker" (fun () ->
              Obs.Span.with_ eng ~component:"t" ~name:"outer"
                ~attrs:[ ("job", Obs.Record.Str "demo") ]
                (fun () ->
                  Engine.sleep eng 1.0;
                  Obs.Span.with_ eng ~component:"t" ~name:"inner" (fun () ->
                      Obs.Span.add_attr eng "bytes" (Obs.Record.Bytes 1024);
                      Engine.sleep eng 2.0);
                  Engine.sleep eng 0.5))
        in
        Engine.run eng)
  in
  let outer = find_span run "outer" and inner = find_span run "inner" in
  Alcotest.(check bool) "outer is a root" true (outer.parent = None);
  Alcotest.(check (option int)) "inner nests in outer" (Some outer.id) inner.parent;
  Alcotest.(check string) "component" "t" inner.component;
  Alcotest.(check string) "fiber attribution" "worker" outer.fiber_name;
  Alcotest.(check (float 1e-9)) "outer spans the whole body" 3.5 outer.duration;
  Alcotest.(check (float 1e-9)) "inner starts after the first sleep" 1.0
    (inner.start_time -. outer.start_time);
  Alcotest.(check (float 1e-9)) "inner duration" 2.0 inner.duration;
  Alcotest.(check bool) "initial attr kept" true (List.mem_assoc "job" outer.attrs);
  Alcotest.(check bool) "add_attr reaches the innermost span" true
    (List.mem_assoc "bytes" inner.attrs);
  Alcotest.(check (list (pair int string)))
    "track labelled"
    [ (outer.track, "unit") ]
    run.tracks

let test_no_collector_is_noop () =
  Alcotest.(check bool) "not recording" false (Obs.Record.recording ());
  let eng = Engine.create ~seed:1 () in
  (* Outside a capture these must record nothing and cost nothing. *)
  Obs.Span.with_ eng ~component:"t" ~name:"ghost" (fun () -> ());
  Obs.Metrics.incr test_counter;
  Obs.Metrics.set test_gauge 99;
  let (), run = Obs.Record.capture (fun () -> ()) in
  Alcotest.(check int) "no spans leak in" 0 (List.length run.spans);
  let m =
    List.find
      (fun m -> m.Obs.Record.m_component = "test" && m.Obs.Record.m_name = "events")
      run.metrics
  in
  Alcotest.(check int) "pre-capture incr dropped" 0 m.Obs.Record.samples

(* ------------------------------------------------------------------ *)
(* Event log *)

let test_event_capture () =
  let e = Engine.create () in
  let (), run =
    Obs.Record.capture (fun () ->
        let _ =
          Engine.Fiber.spawn e (fun () ->
              Engine.sleep e 1.5;
              Obs.Record.event e ~component:"unit" "hello %d" 42;
              Obs.Span.with_ e ~component:"unit" ~name:"phase" (fun () -> Engine.sleep e 0.5))
        in
        Engine.run e)
  in
  Alcotest.(check (list string))
    "time, component and message, spans in emission order"
    [
      "t=1.500000s [unit] hello 42";
      "t=1.500000s [unit] span phase begin";
      "t=2.000000s [unit] span phase end (0.500000s)";
    ]
    run.events;
  Alcotest.(check bool) "collector removed" false (Obs.Record.recording ())

let test_event_without_collector () =
  let e = Engine.create () in
  let formatted = ref false in
  let pp ppf () =
    formatted := true;
    Fmt.string ppf "x"
  in
  Obs.Record.event e ~component:"unit" "not recorded %a" pp ();
  Alcotest.(check bool) "arguments not formatted" false !formatted;
  let (), run = Obs.Record.capture (fun () -> ()) in
  Alcotest.(check (list string)) "nothing leaks into a later capture" [] run.events

let test_event_nested_capture () =
  let e = Engine.create () in
  let ((), inner), outer =
    Obs.Record.capture (fun () ->
        Obs.Record.event e ~component:"outer" "before";
        let inner = Obs.Record.capture (fun () -> Obs.Record.event e ~component:"inner" "nested") in
        Obs.Record.event e ~component:"outer" "after";
        inner)
  in
  Alcotest.(check (list string)) "inner log" [ "t=0.000000s [inner] nested" ] inner.events;
  Alcotest.(check (list string))
    "outer collector restored"
    [ "t=0.000000s [outer] before"; "t=0.000000s [outer] after" ]
    outer.events

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metric_snapshot () =
  let (), run =
    Obs.Record.capture (fun () ->
        Obs.Metrics.incr test_counter;
        Obs.Metrics.incr ~by:4 test_counter;
        Obs.Metrics.set test_gauge 7;
        Obs.Metrics.set test_gauge 3)
  in
  let find name =
    List.find
      (fun m -> m.Obs.Record.m_component = "test" && m.Obs.Record.m_name = name)
      run.Obs.Record.metrics
  in
  let c = find "events" and g = find "level" in
  Alcotest.(check (float 0.)) "counter accumulates" 5.0 c.total;
  Alcotest.(check int) "counter samples" 2 c.samples;
  Alcotest.(check (float 0.)) "gauge is last-value" 3.0 g.total;
  Alcotest.(check (float 0.)) "gauge max retained" 7.0 g.vmax;
  (* The registry lists every registered metric, touched or not, in a
     stable (component, name) order. *)
  let names =
    List.map (fun m -> (m.Obs.Record.m_component, m.Obs.Record.m_name)) run.metrics
  in
  Alcotest.(check bool) "snapshot is sorted" true (List.sort compare names = names)

(* ------------------------------------------------------------------ *)
(* Determinism, export, tiling *)

let observed_checkpoint () =
  let cluster = build () in
  Obs.Record.capture (fun () ->
      Cluster.run cluster (fun () ->
          Obs.Record.label_track cluster.Cluster.engine "e2e";
          let inst =
            Approach.deploy cluster Approach.Blobcr
              ~node:(Cluster.node cluster 0) ~id:"vm0"
          in
          let bench = Synthetic.start inst ~buffer_bytes:(4 * mib) in
          let t0 = Cluster.now cluster in
          let _ =
            Protocol.global_checkpoint_exn cluster ~instances:[ inst ]
              ~dump:(fun _ -> Synthetic.dump_app bench)
          in
          (t0, Cluster.now cluster)))

let test_snapshot_determinism () =
  let _, run1 = observed_checkpoint () in
  let _, run2 = observed_checkpoint () in
  Alcotest.(check string) "metric tables byte-identical"
    (Obs.Export.metrics_table run1)
    (Obs.Export.metrics_table run2);
  Alcotest.(check string) "timelines byte-identical"
    (Obs.Export.chrome_trace run1)
    (Obs.Export.chrome_trace run2)

let test_chrome_trace_well_formed () =
  let _, run = observed_checkpoint () in
  let json = Obs.Export.chrome_trace run in
  (match Obs.Export.validate_json json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid timeline JSON: %s" e);
  Alcotest.(check bool) "rejects malformed input" true
    (Result.is_error (Obs.Export.validate_json "{\"traceEvents\": ["))

let test_phases_tile_checkpoint () =
  let (t0, t1), run = observed_checkpoint () in
  match Obs.Export.breakdown run ~root:"ckpt" with
  | [ b ] ->
      let root = b.Obs.Export.b_root in
      Alcotest.(check (float 1e-9)) "root span covers the measured delta"
        (t1 -. t0) root.Obs.Record.duration;
      let gap = Float.abs b.b_residual in
      if gap > 0.01 *. root.duration then
        Alcotest.failf "leaf phases sum to %.6fs of a %.6fs checkpoint (%.1f%%)"
          b.b_leaf_total root.duration
          (100. *. b.b_leaf_total /. root.duration);
      Alcotest.(check bool) "several distinct phases" true
        (List.length b.b_phases >= 4)
  | bs -> Alcotest.failf "expected one ckpt track, got %d" (List.length bs)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting, timing and attribution" `Quick test_span_nesting;
          Alcotest.test_case "no collector means no-op" `Quick test_no_collector_is_noop;
        ] );
      ( "events",
        [
          Alcotest.test_case "capture" `Quick test_event_capture;
          Alcotest.test_case "no collector is silent" `Quick test_event_without_collector;
          Alcotest.test_case "nested capture restores the outer" `Quick test_event_nested_capture;
        ] );
      ( "metrics",
        [ Alcotest.test_case "registry snapshot semantics" `Quick test_metric_snapshot ] );
      ( "export",
        [
          Alcotest.test_case "snapshots deterministic across seeded runs" `Quick
            test_snapshot_determinism;
          Alcotest.test_case "chrome trace JSON well-formed" `Quick
            test_chrome_trace_well_formed;
          Alcotest.test_case "leaf phases tile the checkpoint span" `Quick
            test_phases_tile_checkpoint;
        ] );
    ]
