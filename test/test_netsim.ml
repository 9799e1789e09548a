(* Tests for the rate server, network model and storage substrates. *)

open Simcore
open Netsim
open Storage

let check_float = Alcotest.(check (float 1e-6))

let in_sim f =
  let e = Engine.create () in
  let result = ref None in
  let _ = Engine.Fiber.spawn e (fun () -> result := Some (f e)) in
  Engine.run e;
  Option.get !result

(* ------------------------------------------------------------------ *)
(* Rate_server *)

let test_rate_server_service_time () =
  let elapsed =
    in_sim (fun e ->
        let s = Rate_server.create e ~rate:100.0 ~per_op:0.5 () in
        let t0 = Engine.now e in
        Rate_server.process s 200;
        Engine.now e -. t0)
  in
  check_float "per_op + bytes/rate" 2.5 elapsed

let test_rate_server_fifo_queueing () =
  let e = Engine.create () in
  let s = Rate_server.create e ~rate:100.0 () in
  let finish_times = ref [] in
  for i = 1 to 3 do
    ignore
      (Engine.Fiber.spawn e (fun () ->
           Rate_server.process s 100;
           finish_times := (i, Engine.now e) :: !finish_times))
  done;
  Engine.run e;
  Alcotest.(check (list (pair int (float 1e-6))))
    "serialized in arrival order"
    [ (1, 1.0); (2, 2.0); (3, 3.0) ]
    (List.rev !finish_times)

let test_rate_server_accounting () =
  let e = Engine.create () in
  let s = Rate_server.create e ~rate:50.0 () in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Rate_server.process s 100;
        Rate_server.process s 50)
  in
  Engine.run e;
  Alcotest.(check int) "ops" 2 (Rate_server.ops s);
  Alcotest.(check int) "bytes" 150 (Rate_server.bytes_served s);
  check_float "busy" 3.0 (Rate_server.busy_time s);
  check_float "utilization" 1.0 (Rate_server.utilization s)

let test_rate_server_rejects_bad_args () =
  let e = Engine.create () in
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Rate_server.create: rate must be positive") (fun () ->
      ignore (Rate_server.create e ~rate:0.0 ()));
  (* min_int marks "no stream served yet", so it cannot name a stream. *)
  Alcotest.check_raises "reserved stream id"
    (Invalid_argument "Rate_server.process: stream id min_int is reserved") (fun () ->
      Rate_server.process (Rate_server.create e ~rate:1.0 ()) ~stream:min_int 1)

let test_rate_server_seeks_on_stream_switch () =
  let e = Engine.create () in
  let s = Rate_server.create e ~rate:1e9 ~seek:0.01 () in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        (* Same stream: one seek. Alternating streams: a seek each time. *)
        Rate_server.process s ~stream:1 100;
        Rate_server.process s ~stream:1 100;
        Rate_server.process s ~stream:2 100;
        Rate_server.process s ~stream:1 100)
  in
  Engine.run e;
  Alcotest.(check int) "three switches" 3 (Rate_server.seeks s);
  check_float "seek time charged" 0.03 (Rate_server.busy_time s -. 4e-7)

let test_rate_server_anonymous_requests_never_seek () =
  let e = Engine.create () in
  let s = Rate_server.create e ~rate:1e9 ~seek:0.01 () in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Rate_server.process s ~stream:1 0;
        Rate_server.process s 0;
        (* anonymous: no seek, stream memory kept *)
        Rate_server.process s ~stream:1 0)
  in
  Engine.run e;
  Alcotest.(check int) "one seek only" 1 (Rate_server.seeks s)

let test_disk_sequential_vs_interleaved () =
  (* The contention mechanism behind the paper's "write pressure under
     concurrency": one sequential stream is fast; interleaved streams pay a
     seek per switch. *)
  let run interleaved =
    let e = Engine.create () in
    let d = Disk.create e ~rate:1e9 ~per_op:0.0 ~seek:0.008 () in
    let _ =
      Engine.Fiber.spawn e (fun () ->
          for i = 1 to 50 do
            let stream = if interleaved then i mod 2 else 0 in
            Disk.write d ~stream 1000
          done)
    in
    Engine.run e;
    Engine.now e
  in
  let sequential = run false and interleaved = run true in
  Alcotest.(check bool)
    (Fmt.str "interleaved %.3fs >> sequential %.3fs" interleaved sequential)
    true
    (interleaved > 10.0 *. sequential)

(* ------------------------------------------------------------------ *)
(* Net *)

let two_host_net ?(config = { Net.default_config with latency = 0.0 }) e =
  let net = Net.create e config in
  let a = Net.add_host net ~name:"a" in
  let b = Net.add_host net ~name:"b" in
  (net, a, b)

let test_net_transfer_rate () =
  (* 1 MiB at 1 MiB/s with zero latency takes 1 s (pipelined stages do not
     double-charge). *)
  let e = Engine.create () in
  let config =
    {
      Net.bandwidth = float_of_int Size.mib;
      latency = 0.0;
      segment_size = 64 * Size.kib;
      fabric_bandwidth = None;
    }
  in
  let net, a, b = two_host_net ~config e in
  let elapsed = ref 0.0 in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        let t0 = Engine.now e in
        Net.transfer net ~src:a ~dst:b Size.mib;
        elapsed := Engine.now e -. t0)
  in
  Engine.run e;
  (* One extra segment of pipeline fill: 1 s + segment/bw = 1.0625 s. *)
  Alcotest.(check bool) "within pipeline fill of ideal" true
    (!elapsed >= 1.0 && !elapsed <= 1.07);
  Alcotest.(check int) "sent" Size.mib (Net.bytes_sent a);
  Alcotest.(check int) "received" Size.mib (Net.bytes_received b)

let test_net_latency_only_message () =
  let e = Engine.create () in
  let config = { Net.default_config with latency = 0.25 } in
  let net, a, b = two_host_net ~config e in
  let elapsed = ref 0.0 in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Net.message net ~src:a ~dst:b;
        elapsed := Engine.now e)
  in
  Engine.run e;
  check_float "latency" 0.25 !elapsed

let test_net_local_transfer_free () =
  let e = Engine.create () in
  let net, a, _ = two_host_net e in
  let elapsed = ref 1.0 in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Net.transfer net ~src:a ~dst:a (Size.mib_n 100);
        elapsed := Engine.now e)
  in
  Engine.run e;
  check_float "free" 0.0 !elapsed

let test_net_incast_contention () =
  (* Many senders to one receiver are bottlenecked by the receiver downlink:
     4 senders of 1 MiB each at 1 MiB/s take ~4 s total, while 4 disjoint
     pairs take ~1 s. *)
  let mk_config =
    {
      Net.bandwidth = float_of_int Size.mib;
      latency = 0.0;
      segment_size = 64 * Size.kib;
      fabric_bandwidth = None;
    }
  in
  let incast =
    let e = Engine.create () in
    let net = Net.create e mk_config in
    let dst = Net.add_host net ~name:"sink" in
    let srcs = List.init 4 (fun i -> Net.add_host net ~name:(Fmt.str "s%d" i)) in
    List.iter
      (fun src ->
        ignore (Engine.Fiber.spawn e (fun () -> Net.transfer net ~src ~dst Size.mib)))
      srcs;
    Engine.run e;
    Engine.now e
  in
  let disjoint =
    let e = Engine.create () in
    let net = Net.create e mk_config in
    let pairs =
      List.init 4 (fun i ->
          (Net.add_host net ~name:(Fmt.str "a%d" i), Net.add_host net ~name:(Fmt.str "b%d" i)))
    in
    List.iter
      (fun (src, dst) ->
        ignore (Engine.Fiber.spawn e (fun () -> Net.transfer net ~src ~dst Size.mib)))
      pairs;
    Engine.run e;
    Engine.now e
  in
  Alcotest.(check bool)
    (Fmt.str "incast (%.2fs) ~4x disjoint (%.2fs)" incast disjoint)
    true
    (incast > 3.5 *. disjoint && incast < 4.5 *. disjoint)

let test_net_fabric_oversubscription () =
  (* With a fabric capped at one NIC's rate, two disjoint transfers take
     twice as long as with a non-blocking fabric. *)
  let run fabric_bandwidth =
    let e = Engine.create () in
    let config =
      {
        Net.bandwidth = float_of_int Size.mib;
        latency = 0.0;
        segment_size = 64 * Size.kib;
        fabric_bandwidth;
      }
    in
    let net = Net.create e config in
    let mk i =
      (Net.add_host net ~name:(Fmt.str "a%d" i), Net.add_host net ~name:(Fmt.str "b%d" i))
    in
    let pairs = [ mk 0; mk 1 ] in
    List.iter
      (fun (src, dst) ->
        ignore (Engine.Fiber.spawn e (fun () -> Net.transfer net ~src ~dst Size.mib)))
      pairs;
    Engine.run e;
    Engine.now e
  in
  let unconstrained = run None in
  let constrained = run (Some (float_of_int Size.mib)) in
  Alcotest.(check bool)
    (Fmt.str "constrained %.2f ~2x unconstrained %.2f" constrained unconstrained)
    true
    (constrained > 1.8 *. unconstrained)

let test_net_transfer_zero_bytes () =
  let e = Engine.create () in
  let net, a, b = two_host_net e in
  let done_ = ref false in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Net.transfer net ~src:a ~dst:b 0;
        done_ := true)
  in
  Engine.run e;
  Alcotest.(check bool) "completes" true !done_

(* ------------------------------------------------------------------ *)
(* Disk *)

let test_net_partition_heal_releases_queued () =
  (* Traffic launched into a partition must survive an early heal: the
     stalled deliveries complete at the heal instant (not the original
     partition deadline) and are counted in delivered_after_heal. *)
  let e = Engine.create () in
  let config = { Net.default_config with latency = 0.01 } in
  let net, a, b = two_host_net ~config e in
  let message_done = ref (-1.0) and transfer_done = ref (-1.0) in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Net.partition net ~side:(fun h -> h == a) ~until:100.0;
        let _ =
          Engine.Fiber.spawn e (fun () ->
              Net.message net ~src:a ~dst:b;
              message_done := Engine.now e)
        in
        let _ =
          Engine.Fiber.spawn e (fun () ->
              Net.transfer net ~src:a ~dst:b Size.mib;
              transfer_done := Engine.now e)
        in
        Engine.sleep e 2.0;
        Net.heal net)
  in
  Engine.run e;
  Alcotest.(check bool) "message released at heal, not deadline" true
    (!message_done >= 2.0 && !message_done < 10.0);
  Alcotest.(check bool) "transfer released at heal, not deadline" true
    (!transfer_done >= 2.0 && !transfer_done < 10.0);
  Alcotest.(check int) "both deliveries counted" 2 (Net.delivered_after_heal net);
  Alcotest.(check int) "transfer bytes arrived intact" Size.mib (Net.bytes_received b)

let test_disk_rw_times () =
  let e = Engine.create () in
  let d = Disk.create e ~rate:100.0 ~per_op:0.0 ~capacity:1000 ~name:"d" () in
  let times = ref [] in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Disk.write d 100;
        times := Engine.now e :: !times;
        Disk.read d 50;
        times := Engine.now e :: !times)
  in
  Engine.run e;
  Alcotest.(check (list (float 1e-6))) "write then read" [ 1.0; 1.5 ] (List.rev !times);
  Alcotest.(check int) "used" 100 (Disk.used d);
  Alcotest.(check int) "read bytes" 50 (Disk.bytes_read d)

let test_disk_capacity_enforced () =
  let e = Engine.create () in
  let d = Disk.create e ~rate:1e9 ~capacity:100 () in
  let overflowed = ref false in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Disk.write d 80;
        (try Disk.write d 30 with Disk.Full _ -> overflowed := true);
        Disk.free d 50;
        Disk.write d 30)
  in
  Engine.run e;
  Alcotest.(check bool) "overflow rejected" true !overflowed;
  Alcotest.(check int) "after free+write" 60 (Disk.used d)

let test_disk_contention_serializes () =
  let e = Engine.create () in
  let d = Disk.create e ~rate:100.0 ~per_op:0.0 () in
  for _ = 1 to 4 do
    ignore (Engine.Fiber.spawn e (fun () -> Disk.write d 100))
  done;
  Engine.run e;
  check_float "serialized" 4.0 (Engine.now e)

(* ------------------------------------------------------------------ *)
(* Content_store *)

let test_content_store_roundtrip () =
  let cs = Content_store.create () in
  let id = Content_store.put cs (Payload.of_string "hello") in
  Alcotest.(check string) "get" "hello" (Payload.to_string (Content_store.get cs id));
  Alcotest.(check int) "bytes" 5 (Content_store.total_bytes cs);
  Alcotest.(check int) "count" 1 (Content_store.chunk_count cs)

let test_content_store_refcounting () =
  let cs = Content_store.create () in
  let id = Content_store.put cs (Payload.of_string "abc") in
  Content_store.incr_ref cs id;
  Content_store.decr_ref cs id;
  Alcotest.(check bool) "still live" true (Content_store.mem cs id);
  Content_store.decr_ref cs id;
  Alcotest.(check bool) "dead" false (Content_store.mem cs id);
  Alcotest.(check int) "bytes freed" 0 (Content_store.total_bytes cs);
  Alcotest.(check int) "refs of dead" 0 (Content_store.refs cs id)

let test_content_store_distinct_ids () =
  let cs = Content_store.create () in
  let a = Content_store.put cs (Payload.of_string "x") in
  let b = Content_store.put cs (Payload.of_string "x") in
  Alcotest.(check bool) "distinct" true (a <> b)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "netsim_storage"
    [
      ( "rate_server",
        [
          Alcotest.test_case "service time" `Quick test_rate_server_service_time;
          Alcotest.test_case "fifo queueing" `Quick test_rate_server_fifo_queueing;
          Alcotest.test_case "accounting" `Quick test_rate_server_accounting;
          Alcotest.test_case "rejects bad args" `Quick test_rate_server_rejects_bad_args;
          Alcotest.test_case "seeks on stream switch" `Quick
            test_rate_server_seeks_on_stream_switch;
          Alcotest.test_case "anonymous requests never seek" `Quick
            test_rate_server_anonymous_requests_never_seek;
          Alcotest.test_case "sequential vs interleaved disk" `Quick
            test_disk_sequential_vs_interleaved;
        ] );
      ( "net",
        [
          Alcotest.test_case "transfer rate" `Quick test_net_transfer_rate;
          Alcotest.test_case "latency-only message" `Quick test_net_latency_only_message;
          Alcotest.test_case "local transfer free" `Quick test_net_local_transfer_free;
          Alcotest.test_case "incast contention" `Quick test_net_incast_contention;
          Alcotest.test_case "fabric oversubscription" `Quick test_net_fabric_oversubscription;
          Alcotest.test_case "zero-byte transfer" `Quick test_net_transfer_zero_bytes;
          Alcotest.test_case "partition heal releases queued traffic" `Quick
            test_net_partition_heal_releases_queued;
        ] );
      ( "disk",
        [
          Alcotest.test_case "read/write times" `Quick test_disk_rw_times;
          Alcotest.test_case "capacity enforced" `Quick test_disk_capacity_enforced;
          Alcotest.test_case "contention serializes" `Quick test_disk_contention_serializes;
        ] );
      ( "content_store",
        [
          Alcotest.test_case "roundtrip" `Quick test_content_store_roundtrip;
          Alcotest.test_case "refcounting" `Quick test_content_store_refcounting;
          Alcotest.test_case "distinct ids" `Quick test_content_store_distinct_ids;
        ] );
    ]
