(* The benchmark of the BlobCR simulator.

   Usage (from the repository root):
     dune exec --root . perfbench/main.exe -- \
       --workload <ckpt-incremental|restart-storm|cm1-qcow2|live-writer> \
       --seed <n> --seconds <s> --trace <0|1>

   --trace 0 runs the workload untraced and reports the end-to-end
   metrics: host cost (CPU and wall time of the timed phase and set-up
   time, all at reference speed, and the peak heap) and simulated cost (checkpoint,
   restart and guest-observed suspend percentiles, snapshot and storage
   size).

   --trace 1 reports the per-layer metrics. It runs the same rounds three
   times: untraced (host rates), traced (benchmark spans plus the
   simulator's own Obs.Record capture), and untraced again as the warm
   reference for the tracing overhead. The traced pass must reproduce the
   untraced pass's simulated results exactly.

   Either mode checks every restored state against what was dumped, that
   no branch of a collective operation failed, and that the invariant
   auditor finds nothing; it prints every metric with its unit, then one
   JSON object as the last line, and exits 1 if any check failed. *)

open Simcore
open Scenarios

let usage () =
  prerr_endline
    "usage: main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
     workloads: ckpt-incremental restart-storm cm1-qcow2 live-writer";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := int_of_string v;
        go rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match !workload with
  | None -> usage ()
  | Some name -> (
      match Scenarios.find name with
      | Some w when !seconds >= 1 && (!trace = 0 || !trace = 1) -> (w, !seed, !seconds, !trace = 1)
      | _ -> usage ())

(* ---------- statistics ---------- *)

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let median xs = percentile 50.0 xs
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
let mib b = float_of_int b /. Host.mib
let ints = List.map float_of_int

(* ---------- metrics ---------- *)

type metric = { name : string; value : float; unit_ : string; better : string }

let m name value unit_ better = { name; value; unit_; better }

(* Host seconds at reference speed: measured seconds divided by how much
   slower than nominal the run's reference slices ran (see [Host]). *)
let at_reference_speed (acc : acc) seconds =
  seconds *. Host.nominal_slice /. (acc.ref_cpu /. float_of_int acc.ref_slices)

let end_to_end (acc : acc) =
  [
    m "cpu_s" (at_reference_speed acc (mean acc.phase_cpu)) "s" "lower";
    m "setup_s" (at_reference_speed acc (median acc.setup_wall)) "s" "lower";
    m "wall_s" (at_reference_speed acc (mean acc.phase_wall)) "s" "lower";
    m "peak_heap_mib" (Host.peak_heap_mib ()) "MiB" "lower";
    m "sim_ckpt_s.p50" (percentile 50.0 acc.ckpt_s) "s" "lower";
    m "sim_ckpt_s.p90" (percentile 90.0 acc.ckpt_s) "s" "lower";
    m "sim_restart_s.p50" (percentile 50.0 acc.restart_s) "s" "lower";
    m "sim_restart_s.p90" (percentile 90.0 acc.restart_s) "s" "lower";
    m "sim_suspend_s.p50" (percentile 50.0 acc.suspend_s) "s" "lower";
    m "sim_suspend_s.p90" (percentile 90.0 acc.suspend_s) "s" "lower";
    m "snapshot_mib" (mib 1 *. mean (ints acc.snapshot_bytes)) "MiB" "lower";
    m "storage_mib" (mib 1 *. mean (ints acc.storage_bytes)) "MiB" "lower";
  ]

(* Raw host figures of an untraced pass, for the per-layer report. *)
let host_raw (acc : acc) =
  [
    m "host.cpu_s.raw" (mean acc.phase_cpu) "s" "lower";
    m "host.wall_s.raw" (mean acc.phase_wall) "s" "lower";
    m "host.setup_s.raw" (median acc.setup_wall) "s" "lower";
    m "host.reference_slice_ms" (1000.0 *. acc.ref_cpu /. float_of_int acc.ref_slices) "ms" "lower";
    m "host_op_ms.p50" (percentile 50.0 acc.op_ref_ms) "ms" "lower";
    m "host_op_ms.p90" (percentile 90.0 acc.op_ref_ms) "ms" "lower";
    m "host_op_ms.samples" (float_of_int (List.length acc.op_ref_ms)) "count" "higher";
    m "host.op_ms.p50.raw" (percentile 50.0 acc.op_cpu_ms) "ms" "lower";
    m "host.op_ms.p90.raw" (percentile 90.0 acc.op_cpu_ms) "ms" "lower";
  ]

(* The simulated results of a pass, compared exactly across passes. *)
let simulated (acc : acc) =
  ( (acc.ckpt_s, acc.restart_s, acc.suspend_s),
    (acc.snapshot_bytes, acc.storage_bytes, acc.written, acc.writer_s) )

(* Components the simulator's own spans are filed under. *)
let sim_components = [ "approach"; "blob"; "mirror"; "proto"; "proxy"; "vm"; "vmgr" ]

(* The simulator's in-program metrics reported per round, with units. *)
let obs_metrics =
  [
    ("blob", "bytes_shipped", "B");
    ("blob", "bytes_deduped", "B");
    ("blob", "bytes_suppressed", "B");
    ("blob", "digest_bytes_digested", "B");
    ("blob", "digest_bytes_cached", "B");
    ("blob", "digest_bytes_skipped", "B");
    ("blob", "merkle_node_hashes", "count");
    ("ckpt", "precopy_bytes", "B");
    ("ckpt", "precopy_rounds", "count");
    ("ckpt", "suspend_seconds", "s");
    ("mirror", "bytes_fetched", "B");
    ("mirror", "chunks_fetched", "count");
    ("mirror", "cow_bytes", "B");
    ("mirror", "commit_seconds", "s");
    ("prefetch", "distinct_fetches", "count");
    ("prefetch", "coalesced_fetches", "count");
    ("pvfs", "bytes_read", "B");
    ("pvfs", "bytes_written", "B");
    ("proxy", "requests_served", "count");
    ("vmgr", "publishes", "count");
  ]

let boundary_spans =
  [
    "core.cluster.build";
    "core.approach.deploy";
    "workloads.dump";
    "core.protocol.global_checkpoint";
    "core.protocol.global_restart";
    "workloads.restore";
  ]

(* Host digest rate on fresh seeded patterns of [block] bytes: every
   pattern is new, so no memo can answer for it. *)
let digest_mibps ~seed ~block =
  let total = 64 * Size.mib in
  let c0 = Host.cpu () in
  for i = 0 to (total / block) - 1 do
    ignore
      (Payload.digest
         (Payload.pattern ~seed:(Int64.of_int (Hashtbl.hash (0xD1CE57, seed, block, i))) block))
  done;
  mib total /. (Host.cpu () -. c0)

let per_layer ~seed ~(cold : acc) ~(traced : acc) ~(run : Obs.Record.run) ~overhead =
  let rounds = float_of_int traced.rounds in
  let per_round x = x /. rounds in
  let words_mib w = w *. Host.word_bytes /. Host.mib in
  let spans = Tracer.summarise () in
  let span_metrics =
    List.concat_map
      (fun name ->
        let s =
          Option.value ~default:{ Tracer.calls = 0; self_cpu_s = 0.0; sim_s = 0.0 }
            (List.assoc_opt name spans)
        in
        [
          m (name ^ ".calls") (per_round (float_of_int s.Tracer.calls)) "count" "lower";
          m (name ^ ".self_cpu_s") (per_round s.Tracer.self_cpu_s) "s" "lower";
          m (name ^ ".sim_s") (per_round s.Tracer.sim_s) "s" "lower";
        ])
      boundary_spans
  in
  let obs =
    List.map
      (fun (component, name, unit_) ->
        let total =
          match
            List.find_opt
              (fun (x : Obs.Record.metric) ->
                String.equal x.Obs.Record.m_component component && String.equal x.Obs.Record.m_name name)
              run.Obs.Record.metrics
          with
          | Some x -> x.Obs.Record.total
          | None -> 0.0
        in
        m (Fmt.str "obs.%s.%s" component name) (per_round total) unit_ "lower")
      obs_metrics
  in
  (* Leaf phases of each round's checkpoint and restart critical paths,
     filed under the component of the span that produced them. *)
  let component_of phase =
    match List.find_opt (fun (s : Obs.Record.span) -> String.equal s.Obs.Record.name phase) run.Obs.Record.spans with
    | Some s -> s.Obs.Record.component
    | None -> ""
  in
  let self = Hashtbl.create 8 in
  List.iter
    (fun root ->
      List.iter
        (fun (b : Obs.Export.breakdown) ->
          List.iter
            (fun (phase, secs) ->
              let c = component_of phase in
              Hashtbl.replace self c (secs +. Option.value ~default:0.0 (Hashtbl.find_opt self c)))
            b.Obs.Export.b_phases)
        (Obs.Export.breakdown run ~root))
    [ "ckpt"; "restart" ];
  let sim_self =
    List.map
      (fun c ->
        m (Fmt.str "sim.%s.self_s" c)
          (per_round (Option.value ~default:0.0 (Hashtbl.find_opt self c)))
          "s" "lower")
      sim_components
  in
  let cold_cpu = List.fold_left ( +. ) 0.0 cold.phase_cpu in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  [
    m "simcore.payload.hashed_mib" (per_round (mib traced.hashed)) "MiB" "lower";
    m "simcore.payload.hashed_per_dumped_byte"
      (ratio (float_of_int traced.hashed) (float_of_int traced.dumped))
      "ratio" "lower";
    m "simcore.payload.digest_mibps.64k" (digest_mibps ~seed ~block:(64 * Size.kib)) "MiB/s" "higher";
    m "simcore.payload.digest_mibps.256k" (digest_mibps ~seed ~block:(256 * Size.kib)) "MiB/s" "higher";
    m "simcore.engine.events" (per_round (float_of_int traced.events)) "count" "lower";
    m "simcore.engine.events_per_cpu_s" (ratio (float_of_int cold.events) cold_cpu) "1/s" "higher";
    m "simcore.engine.live_fibers.max" (float_of_int traced.fibers_max) "count" "lower";
    m "host.gc.minor_mib" (per_round (words_mib cold.gc_minor_words)) "MiB" "lower";
    m "host.gc.major_mib" (per_round (words_mib cold.gc_major_words)) "MiB" "lower";
    m "host.gc.major_collections" (per_round (float_of_int cold.gc_major_collections)) "count" "lower";
    m "netsim.net.sent_mib" (per_round (mib traced.net_sent)) "MiB" "lower";
    m "storage.disk.written_mib" (per_round (mib traced.disk_written)) "MiB" "lower";
    m "storage.disk.read_mib" (per_round (mib traced.disk_read)) "MiB" "lower";
    m "storage.disk.busy_s.max" traced.disk_busy_max "s" "lower";
    m "storage.disk.write_amp"
      (ratio (float_of_int traced.disk_written) (float_of_int traced.dumped))
      "ratio" "lower";
    m "blobseer.client.repository_mib" (per_round (mib traced.repository)) "MiB" "lower";
    m "vdisk.mirror.shipped_mib" (per_round (mib traced.mirror_shipped)) "MiB" "lower";
    m "vdisk.mirror.cow_mib" (per_round (mib traced.mirror_cow)) "MiB" "lower";
    m "vdisk.mirror.local_mib" (per_round (mib traced.mirror_local)) "MiB" "lower";
    m "vdisk.qcow2.file_mib" (per_round (mib traced.qcow2_file)) "MiB" "lower";
    m "vdisk.qcow2.allocated_clusters" (per_round (float_of_int traced.qcow2_clusters)) "count" "lower";
    m "vmsim.writer.mibps" (ratio (mib traced.written) traced.writer_s) "MiB/s" "higher";
  ]
  @ host_raw cold @ span_metrics @ obs @ sim_self
  @ [ m "trace.overhead_frac" overhead "ratio" "lower" ]

(* ---------- output ---------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let report ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "%-44s %18.6f %-6s (%s is better)\n" x.name x.value x.unit_ x.better)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

let () =
  let w, seed, seconds, trace = parse_args () in
  (* Fixed work per run: the round count follows from the requested
     seconds and the workload's nominal round length, never from a clock,
     so simulated results depend only on the seed and the seconds. *)
  let rounds = 1 + max 3 (int_of_float (Float.round (float_of_int seconds /. w.round_seconds))) in
  Analysis.Invariants.install ();
  let passes, metrics =
    if not trace then begin
      let acc = run_pass w ~seed ~rounds in
      Printf.printf "%s: %d rounds, %d timed operations (host_op_ms samples)\n" w.name acc.rounds
        (List.length acc.op_cpu_ms);
      ([ acc ], end_to_end acc)
    end
    else begin
      let cold = run_pass w ~seed ~rounds in
      Tracer.reset ();
      Tracer.enabled := true;
      let traced, run = Obs.Record.capture (fun () -> run_pass w ~seed ~rounds) in
      Tracer.enabled := false;
      let warm = run_pass w ~seed ~rounds in
      if simulated cold <> simulated traced || simulated warm <> simulated traced then
        error traced "traced run's simulated results differ from the untraced run's";
      let cpu (a : acc) = at_reference_speed a (mean a.phase_cpu) in
      let overhead = (cpu traced /. cpu warm) -. 1.0 in
      (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
      Tracer.write (Fmt.str "perfbench/out/spans-%s-seed%d.jsonl" w.name seed);
      ([ cold; traced; warm ], per_layer ~seed ~cold ~traced ~run ~overhead)
    end
  in
  let errors = List.concat_map (fun (a : acc) -> List.rev a.errors) passes in
  let first = List.hd passes in
  let correct =
    errors = []
    && first.failed = 0
    && List.for_all (fun x -> Float.is_finite x.value) metrics
    && (trace || List.for_all (fun x -> x.value > 0.0) metrics)
  in
  List.iter (fun e -> Printf.eprintf "check failed: %s\n" e) errors;
  report ~correct ~attempted:first.attempted ~failed:first.failed metrics;
  exit (if correct then 0 else 1)
