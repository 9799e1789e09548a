(* The four benchmark workloads, built from the simulator's public API.

   A pass runs [rounds] independent rounds of one workload. Each round
   stands up a fresh cluster (the set-up, timed as [setup_s]), then runs
   the timed phase: a fixed sequence of global checkpoints and restarts.
   Every input — engine seed, instance ids (which seed buffer contents),
   buffer sizes, CM1 start step, writer record contents — is drawn from
   the run seed and the round index, so a (seed, rounds) pair always
   produces the same simulated run, and no two rounds hash the same
   payloads (the simulator's process-wide digest memo cannot turn a later
   round into a cheaper one).

   The benchmark drives each engine with its own [Engine.step] loop, stops
   it when the main fiber returns (OS-logger fibers keep the queue
   non-empty forever), and times every call into a layer from outside. *)

open Simcore
open Blobcr
open Vmsim
open Workloads

(* ---------- what a pass accumulates ---------- *)

type acc = {
  (* host cost, one sample per round or per operation *)
  mutable setup_wall : float list;
  mutable phase_wall : float list;
  mutable phase_cpu : float list;
  mutable op_cpu_ms : float list;
  mutable op_ref_ms : float list;  (** [op_cpu_ms], each at reference speed *)
  mutable ref_cpu : float;  (** CPU seconds spent in reference slices *)
  mutable ref_slices : int;
  (* simulated cost *)
  mutable ckpt_s : float list;
  mutable restart_s : float list;
  mutable suspend_s : float list;
  mutable snapshot_bytes : int list;
  mutable storage_bytes : int list;
  mutable written : int;
  mutable writer_s : float;
  (* branches of collective operations *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  (* layer counters over the timed phases, summed over rounds *)
  mutable hashed : int;
  mutable dumped : int;
  mutable events : int;
  mutable fibers_max : int;
  mutable gc_minor_words : float;
  mutable gc_major_words : float;
  mutable gc_major_collections : int;
  mutable net_sent : int;
  mutable disk_written : int;
  mutable disk_read : int;
  mutable disk_busy_max : float;
  mutable repository : int;
  mutable mirror_shipped : int;
  mutable mirror_cow : int;
  mutable mirror_local : int;
  mutable qcow2_file : int;
  mutable qcow2_clusters : int;
  mutable rounds : int;
}

let create_acc () =
  {
    setup_wall = [];
    phase_wall = [];
    phase_cpu = [];
    op_cpu_ms = [];
    op_ref_ms = [];
    ref_cpu = 0.0;
    ref_slices = 0;
    ckpt_s = [];
    restart_s = [];
    suspend_s = [];
    snapshot_bytes = [];
    storage_bytes = [];
    written = 0;
    writer_s = 0.0;
    attempted = 0;
    failed = 0;
    errors = [];
    hashed = 0;
    dumped = 0;
    events = 0;
    fibers_max = 0;
    gc_minor_words = 0.0;
    gc_major_words = 0.0;
    gc_major_collections = 0;
    net_sent = 0;
    disk_written = 0;
    disk_read = 0;
    disk_busy_max = 0.0;
    repository = 0;
    mirror_shipped = 0;
    mirror_cow = 0;
    mirror_local = 0;
    qcow2_file = 0;
    qcow2_clusters = 0;
    rounds = 0;
  }

let error acc msg = acc.errors <- msg :: acc.errors

(* ---------- one round ---------- *)

type ctx = {
  acc : acc;
  cluster : Cluster.t;
  seed : int;  (** the run's seed; buffer and subdomain sizes depend on it alone *)
  rng : Rng.t;  (** input generator for this round *)
  tag : string;  (** prefix unique to (seed, round); instance ids carry it *)
  index : (string, int) Hashtbl.t;  (** instance id -> position in its gang *)
  timed : bool;  (** false in the warm-up round: no host samples *)
  mutable checks : (unit -> unit) list;  (** deferred correctness checks *)
}

let engine ctx = ctx.cluster.Cluster.engine
let now ctx = Cluster.now ctx.cluster
let sim ctx () = now ctx
let check ctx f = ctx.checks <- f :: ctx.checks

(* Events the step loop executed and the live-fiber high-water mark,
   reset at the start of every timed phase. *)
let events = ref 0
let fibers_max = ref 0

let drive (cluster : Cluster.t) f =
  let engine = cluster.Cluster.engine in
  let result = ref None in
  ignore (Engine.Fiber.spawn engine ~name:"bench-main" (fun () -> result := Some (f ())));
  while Option.is_none !result && Engine.step engine do
    incr events;
    let live = Engine.live_fibers engine in
    if live > !fibers_max then fibers_max := live
  done;
  match !result with
  | Some r -> r
  | None -> failwith "benchmark main fiber did not complete (deadlock)"

(* ---------- the guest writer ---------- *)

(* A guest process that ticks every [tick] simulated seconds. At each tick
   it first passes [Vm.pause_point] — a suspended VM blocks it there, and
   the block is the stall the guest observes — and, when [record] is
   positive, it rewrites the next of [slots] files with a fresh
   [record]-byte payload and syncs. Stopping waits for the loop to
   reach its top, so the slot files are quiescent and their last contents
   are known. *)
type writer = {
  w_ctx : ctx;
  profile : writer_profile;
  contents : Payload.t option array;
  mutable stop : bool;
  stopped : unit Engine.Ivar.t;
}

and writer_profile = { record : int; tick : float; slots : int }

(* A heartbeat is a writer without I/O: its pause-point stalls are the
   [sim_suspend_s] samples (a writer's own stalls depend on where its
   write period falls and are not sampled). Every workload runs one per
   instance. The simulator can lose guest writes that run concurrently
   with a stop-the-world checkpoint's dump (a slot writer beside
   ckpt-incremental's dumps read back base-image bytes after restart), so
   only the live workload, whose checkpoints are built for a running
   writer, writes. *)
let heartbeat = { record = 0; tick = 0.02; slots = 0 }

let slot_path slot = Fmt.str "/bench/slot.%d" slot

let start_writer ctx profile (inst : Approach.instance) =
  let vm = inst.Approach.vm in
  let w =
    {
      w_ctx = ctx;
      profile;
      contents = Array.make profile.slots None;
      stop = false;
      stopped = Engine.Ivar.create (engine ctx);
    }
  in
  let acc = ctx.acc in
  let body () =
    let t_start = now ctx in
    let iter = ref 0 in
    while not w.stop do
      let t0 = now ctx in
      Vm.pause_point vm;
      let stall = now ctx -. t0 in
      if profile.record = 0 && stall > 0.0 then acc.suspend_s <- stall :: acc.suspend_s;
      if profile.record > 0 then begin
        let slot = !iter mod profile.slots in
        let payload =
          Payload.pattern
            ~seed:(Int64.of_int (Hashtbl.hash (ctx.tag, inst.Approach.id, slot, !iter)))
            profile.record
        in
        let fs = Vm.fs vm in
        Guest_fs.write_file fs ~path:(slot_path slot) payload;
        Guest_fs.sync fs;
        w.contents.(slot) <- Some payload;
        acc.written <- acc.written + profile.record;
        acc.dumped <- acc.dumped + profile.record
      end;
      incr iter;
      Engine.sleep (engine ctx) profile.tick
    done;
    if profile.record > 0 then acc.writer_s <- acc.writer_s +. (now ctx -. t_start);
    Engine.Ivar.fill w.stopped ()
  in
  ignore (Vm.spawn_process vm ~name:"writer" ~mem:(max profile.record Size.kib) body);
  w

let start_heartbeats ?(profile = heartbeat) ctx instances =
  List.iter (fun inst -> ignore (start_writer ctx profile inst)) instances

let stop_writer w =
  w.stop <- true;
  Engine.Ivar.read w.stopped

(* Read the slot files back on a restored instance; the check compares
   them with the writer's last contents once the phase is over. *)
let read_slots w (inst : Approach.instance) =
  let fs = Vm.fs inst.Approach.vm in
  let restored =
    Array.mapi
      (fun slot expected ->
        Option.map (fun _ -> Guest_fs.read_file fs ~path:(slot_path slot)) expected)
      w.contents
  in
  check w.w_ctx (fun () ->
      Array.iteri
        (fun slot expected ->
          match (expected, restored.(slot)) with
          | Some e, Some r when Payload.equal e r -> ()
          | None, None -> ()
          | _ ->
              error w.w_ctx.acc
                (Fmt.str "%s: writer slot %d differs after restart" inst.Approach.id slot))
        w.contents)

(* ---------- instances and collective operations ---------- *)

let span ?sequential ctx name f = Tracer.with_ ?sequential ~sim:(sim ctx) name f

let name_instance ctx i suffix =
  let id = Fmt.str "%s-vm%d%s" ctx.tag i suffix in
  Hashtbl.replace ctx.index id i;
  id

let index_of ctx (inst : Approach.instance) = Hashtbl.find ctx.index inst.Approach.id

let deploy_all ctx kind ~n =
  let instances = Array.make n None in
  Engine.all (engine ctx) ~name:"bench-deploy"
    (List.init n (fun i () ->
         instances.(i) <-
           Some
             (span ctx "core.approach.deploy" (fun () ->
                  Approach.deploy ctx.cluster kind ~node:(Cluster.node ctx.cluster i)
                    ~id:(name_instance ctx i "")))));
  Array.to_list (Array.map Option.get instances)

(* Stack counters are read once per instance, just before it dies (or at
   the end of the round), so cumulative counters are never double
   counted. *)
let sample_stack ctx (inst : Approach.instance) =
  let acc = ctx.acc in
  match inst.Approach.stack with
  | Approach.Mirror_stack m ->
      acc.mirror_shipped <-
        acc.mirror_shipped + (Vdisk.Mirror.total_commit_stats m).Blobseer.Client.bytes_shipped;
      acc.mirror_cow <- acc.mirror_cow + Vdisk.Mirror.cow_bytes m;
      acc.mirror_local <- acc.mirror_local + Vdisk.Mirror.local_bytes m
  | Approach.Qcow2_stack q ->
      acc.qcow2_file <- acc.qcow2_file + Vdisk.Qcow2.file_size q;
      acc.qcow2_clusters <- acc.qcow2_clusters + Vdisk.Qcow2.allocated_clusters q

let kill_all ctx instances =
  List.iter (sample_stack ctx) instances;
  Protocol.kill_all instances

(* Record one timed operation's host CPU [c0 .. now]. Every operation
   is followed by one reference slice (see [Host]), which also scales
   that operation to reference speed; the slice's CPU is kept out of the
   operation and the phase. *)
let record_op ctx c0 =
  let op_ms = (Host.cpu () -. c0) *. 1000.0 in
  let slice = Host.reference_slice () in
  let acc = ctx.acc in
  if ctx.timed then begin
    acc.op_cpu_ms <- op_ms :: acc.op_cpu_ms;
    acc.op_ref_ms <- (op_ms *. Host.nominal_slice /. slice) :: acc.op_ref_ms;
    acc.ref_cpu <- acc.ref_cpu +. slice;
    acc.ref_slices <- acc.ref_slices + 1
  end

let count_branches ctx ~attempted ~failed what =
  let acc = ctx.acc in
  acc.attempted <- acc.attempted + attempted;
  acc.failed <- acc.failed + List.length failed;
  List.iter
    (fun (e : Protocol.branch_error) ->
      error acc (Fmt.str "%s failed: %a" what Protocol.pp_branch_error e))
    failed

(* One global checkpoint, dump included: one timed operation unless
   [op] is false (checkpoints taken during set-up). *)
let checkpoint ?mode ?(op = true) ctx ~instances ~dump =
  let t0 = now ctx and c0 = Host.cpu () in
  let result =
    span ~sequential:true ctx "core.protocol.global_checkpoint" (fun () ->
        Protocol.global_checkpoint ?mode ctx.cluster ~instances ~dump:(fun inst ->
            span ctx "workloads.dump" (fun () -> dump inst)))
  in
  let acc = ctx.acc in
  if op then record_op ctx c0;
  acc.ckpt_s <- (now ctx -. t0) :: acc.ckpt_s;
  match result with
  | Ok snapshots ->
      count_branches ctx ~attempted:(List.length instances) ~failed:[] "checkpoint";
      acc.snapshot_bytes <- List.map Approach.snapshot_bytes snapshots @ acc.snapshot_bytes;
      snapshots
  | Error p ->
      count_branches ctx ~attempted:(List.length instances) ~failed:p.Protocol.failed
        "checkpoint";
      failwith "global checkpoint failed"

(* One global restart, restore included: one timed operation. [after]
   runs inside the timed operation once every instance is back (CM1's
   application-level restore needs the whole gang). *)
let restart ?(after = fun _ -> ()) ctx ~plan ~restore =
  let t0 = now ctx and c0 = Host.cpu () in
  let result =
    span ~sequential:true ctx "core.protocol.global_restart" (fun () ->
        Protocol.global_restart ctx.cluster ~plan ~restore:(fun inst ->
            span ctx "workloads.restore" (fun () -> restore inst)))
  in
  let acc = ctx.acc in
  let instances =
    match result with
    | Ok instances ->
        count_branches ctx ~attempted:(List.length plan) ~failed:[] "restart";
        span ctx "workloads.restore" (fun () -> after instances);
        instances
    | Error p ->
        count_branches ctx ~attempted:(List.length plan) ~failed:p.Protocol.failed "restart";
        failwith "global restart failed"
  in
  record_op ctx c0;
  acc.restart_s <- (now ctx -. t0) :: acc.restart_s;
  instances

(* Restart targets shifted by [shift] nodes, so no instance comes back on
   the node it ran on. *)
let plan ctx ~shift ~suffix snapshots =
  let nodes = Cluster.node_count ctx.cluster in
  List.mapi
    (fun i snapshot ->
      (Cluster.node ctx.cluster ((i + shift) mod nodes), name_instance ctx i suffix, snapshot))
    snapshots

(* [base] plus up to a twentieth more, in 4 KiB file-system blocks, drawn
   from the run seed and [key]: every round of a run does the same work
   and every seed a slightly different amount. *)
let vary ctx key base =
  let u = Rng.float (Rng.create (Hashtbl.hash (ctx.seed, key))) 0.05 in
  base + (int_of_float (u *. float_of_int base) / (4 * Size.kib) * 4 * Size.kib)

(* ---------- workloads ---------- *)

type workload = {
  name : string;
  cal : Calibration.t;
  round_seconds : float;
      (** host seconds one round took on the 2-vCPU machine the benchmark
          was sized on, under its usual load; sizes runs only *)
  setup : ctx -> unit -> unit;  (** stands the round up; returns the timed phase *)
}

let start_benches ctx instances =
  List.mapi
    (fun i inst ->
      Synthetic.start inst ~buffer_bytes:(vary ctx ("buffer", i) (Size.mib_n 2)))
    instances

(* Restore the application buffer and check it against the dumped one. *)
let restore_buffer ctx benches inst =
  let restored = Synthetic.restore_app inst in
  let expected = Synthetic.buffer (List.nth benches (index_of ctx inst)) in
  check ctx (fun () ->
      if not (Payload.equal expected (Synthetic.buffer restored)) then
        error ctx.acc (Fmt.str "%s: restored buffer differs from the dumped one" inst.Approach.id))

(* ckpt-incremental: the write path. BlobCR-app on three instances, each
   epoch a refill, an application dump keeping one file, a stop-the-world
   global checkpoint and a snapshot GC; then a final restart on shifted
   nodes that must restore every buffer. *)
let ckpt_incremental_epochs = 8

let ckpt_incremental ctx =
  let n = 3 in
  let instances = deploy_all ctx Approach.Blobcr ~n in
  let benches = start_benches ctx instances in
  start_heartbeats ctx instances;
  fun () ->
    let snapshots = ref [] in
    for _ = 1 to ckpt_incremental_epochs do
      List.iter Synthetic.refill benches;
      snapshots :=
        checkpoint ctx ~instances ~dump:(fun inst ->
            let b = List.nth benches (index_of ctx inst) in
            ctx.acc.dumped <- ctx.acc.dumped + Payload.length (Synthetic.buffer b);
            Synthetic.dump_app ~retain:1 b);
      ignore (Blobcr.Gc.collect ctx.cluster.Cluster.service ~keep_last:1 ())
    done;
    kill_all ctx instances;
    kill_all ctx
      (restart ctx ~plan:(plan ctx ~shift:n ~suffix:"r" !snapshots)
         ~restore:(restore_buffer ctx benches))

(* restart-storm: the read path. Four instances boot the full 180 MiB hot
   set; the set-up takes one global checkpoint; the timed phase kills and
   restarts the whole gang from it, each time on nodes shifted further,
   restoring and checking every buffer. *)
let restart_storm_restarts = 60

let restart_storm ctx =
  let n = 4 in
  let instances = deploy_all ctx Approach.Blobcr ~n in
  let benches = start_benches ctx instances in
  start_heartbeats ctx instances;
  let snapshots =
    checkpoint ~op:false ctx ~instances ~dump:(fun inst ->
        Synthetic.dump_app (List.nth benches (index_of ctx inst)))
  in
  fun () ->
    let current = ref instances in
    for k = 1 to restart_storm_restarts do
      kill_all ctx !current;
      current :=
        restart ctx
          ~plan:(plan ctx ~shift:(k * n) ~suffix:(Fmt.str "r%d" k) snapshots)
          ~restore:(restore_buffer ctx benches)
    done;
    kill_all ctx !current

(* cm1-qcow2: the CM1 stencil on the qcow2-disk stack, alternating
   iterations with blcr process dumps that each export the whole image to
   PVFS. blcr dumps are never deleted, so every epoch costs more than the
   last. The last checkpoint adds CM1's own subdomain files; the restart
   must bring back both the blcr dumps and the subdomain states. *)
let cm1_epochs = 8

let cm1_config ctx =
  {
    Cm1.default_config with
    procs_per_vm = 2;
    subdomain_state_bytes = vary ctx "subdomain" (512 * Size.kib);
    compute_per_iteration = 5.0;
    summary_every = 2;
  }

let is_rank p =
  let name = Process.name p in
  String.length name > 4 && String.sub name 0 4 = "cm1."

let cm1_qcow2 ctx =
  let n = 2 in
  let instances = deploy_all ctx Approach.Qcow2_disk ~n in
  let config = cm1_config ctx in
  let cm1 = Cm1.setup ctx.cluster ~instances config in
  Cm1.set_steps cm1 (Rng.int ctx.rng 500_000);
  start_heartbeats ctx instances;
  Cm1.iterate cm1 2;
  fun () ->
    let snapshots = ref [] in
    for e = 1 to cm1_epochs do
      Cm1.iterate cm1 2;
      snapshots :=
        checkpoint ctx ~instances ~dump:(fun inst ->
            ctx.acc.dumped <- ctx.acc.dumped + Vm.process_memory inst.Approach.vm;
            if e = cm1_epochs then Cm1.dump_app cm1 inst;
            Cm1.dump_blcr cm1 inst)
    done;
    (* What the final checkpoint holds, per instance: each rank's
       subdomain state and its newest blcr context file. *)
    let expected =
      List.map
        (fun inst ->
          let vm = inst.Approach.vm in
          ( Cm1.subdomain_digests cm1 inst,
            List.map
              (fun p ->
                let name = Process.name p in
                ( name,
                  Blcr.dump_payload ~vm:(Vm.name vm) ~name ~mem:(Process.mem p)
                    ~epoch:(cm1_epochs - 1) ))
              (List.filter is_rank (Vm.processes vm)) ))
        instances
    in
    kill_all ctx instances;
    let restore inst =
      let _, dumps = List.nth expected (index_of ctx inst) in
      ignore (Blcr.restore inst.Approach.vm);
      let restored = List.map (fun (name, _) -> Blcr.newest_dump inst.Approach.vm ~name) dumps in
      check ctx (fun () ->
          List.iter2
            (fun (name, want) got ->
              if not (Payload.equal want got) then
                error ctx.acc (Fmt.str "%s: blcr dump of %s differs after restart" inst.Approach.id name))
            dumps restored)
    in
    let after restarted =
      let cm1' = Cm1.setup ctx.cluster ~instances:restarted config in
      List.iter
        (fun inst ->
          Cm1.restore_app cm1' inst;
          let digests = Cm1.subdomain_digests cm1' inst in
          let want, _ = List.nth expected (index_of ctx inst) in
          check ctx (fun () ->
              if not (List.equal Int64.equal want digests) then
                error ctx.acc (Fmt.str "%s: CM1 subdomain state differs after restart" inst.Approach.id)))
        restarted
    in
    kill_all ctx (restart ctx ~plan:(plan ctx ~shift:n ~suffix:"r" !snapshots) ~restore ~after)

(* live-writer: one BlobCR guest rewriting 256 KiB records (one mirror
   chunk each) at up to 8 MiB/s while live checkpoints run with two
   pre-copy rounds and background commit. The writer stops before the
   last checkpoint, and the restart must bring back every slot. *)
let live_epochs = 10

(* The writer's period and the checkpoint interval vary by up to a tenth
   from round to round, so a run samples many alignments of writes and
   suspends. Live suspend windows last milliseconds, so the heartbeat
   ticks every millisecond. *)
let live_writer ctx =
  let instances = deploy_all ctx Approach.Blobcr ~n:1 in
  let tick = (1.0 +. Rng.float ctx.rng 0.1) /. 32.0 in
  let interval = 1.0 +. Rng.float ctx.rng 0.1 in
  let writers =
    List.map (start_writer ctx { record = 256 * Size.kib; tick; slots = 8 }) instances
  in
  start_heartbeats ~profile:{ heartbeat with tick = 0.001 } ctx instances;
  fun () ->
    let snapshots = ref [] in
    let mode = Approach.Live { rounds = 2; background = true } in
    for e = 1 to live_epochs do
      Engine.sleep (engine ctx) interval;
      if e = live_epochs then List.iter stop_writer writers;
      snapshots :=
        checkpoint ~mode ctx ~instances ~dump:(fun inst -> Guest_fs.sync (Vm.fs inst.Approach.vm))
    done;
    kill_all ctx instances;
    kill_all ctx
      (restart ctx ~plan:(plan ctx ~shift:1 ~suffix:"r" !snapshots) ~restore:(fun inst ->
           read_slots (List.nth writers (index_of ctx inst)) inst))

let quick = Calibration.quick_test

let all =
  [
    {
      name = "ckpt-incremental";
      cal = { quick with compute_nodes = 6 };
      round_seconds = 0.8;
      setup = ckpt_incremental;
    };
    {
      name = "restart-storm";
      cal = { quick with compute_nodes = 8; boot = Vm.default_boot_profile };
      round_seconds = 1.0;
      setup = restart_storm;
    };
    {
      name = "cm1-qcow2";
      cal = { quick with compute_nodes = 4 };
      round_seconds = 0.65;
      setup = cm1_qcow2;
    };
    {
      name = "live-writer";
      cal = { quick with compute_nodes = 2 };
      round_seconds = 0.85;
      setup = live_writer;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* ---------- running rounds ---------- *)

(* Layer counters read at both ends of a timed phase. *)
type counters = {
  gc : Host.gc;
  hashed_bytes : int;
  sent : int;
  written : int;
  read : int;
  busy : float list;  (** per node disk *)
}

let counters (cluster : Cluster.t) =
  let disks = Array.to_list (Array.map (fun n -> n.Cluster.disk) cluster.Cluster.nodes) in
  let sum f = List.fold_left (fun a d -> a + f d) 0 disks in
  {
    gc = Host.gc ();
    hashed_bytes = Payload.hashed_bytes ();
    sent = List.fold_left (fun a h -> a + Netsim.Net.bytes_sent h) 0 (Netsim.Net.hosts cluster.Cluster.net);
    written = sum Storage.Disk.bytes_written;
    read = sum Storage.Disk.bytes_read;
    busy = List.map Storage.Disk.busy_time disks;
  }

let add_phase acc c0 c1 =
  acc.gc_minor_words <- acc.gc_minor_words +. (c1.gc.Host.minor_words -. c0.gc.Host.minor_words);
  acc.gc_major_words <- acc.gc_major_words +. (c1.gc.Host.major_words -. c0.gc.Host.major_words);
  acc.gc_major_collections <-
    acc.gc_major_collections + (c1.gc.Host.major_collections - c0.gc.Host.major_collections);
  acc.hashed <- acc.hashed + (c1.hashed_bytes - c0.hashed_bytes);
  acc.net_sent <- acc.net_sent + (c1.sent - c0.sent);
  acc.disk_written <- acc.disk_written + (c1.written - c0.written);
  acc.disk_read <- acc.disk_read + (c1.read - c0.read);
  List.iter2
    (fun b0 b1 -> acc.disk_busy_max <- Float.max acc.disk_busy_max (b1 -. b0))
    c0.busy c1.busy

(* Round 0 warms the process up (heap growth, the base image's digest
   memo): it is simulated and checked like every round, but contributes
   no host samples. *)
let run_round acc (w : workload) ~seed ~round =
  let timed = round > 0 in
  let tag = Fmt.str "s%d.%d" seed round in
  let rng = Rng.create (Hashtbl.hash (seed, round, w.name)) in
  let w0 = Host.wall () in
  let cluster_ref = ref None in
  let build_sim () = match !cluster_ref with Some c -> Cluster.now c | None -> 0.0 in
  let cluster =
    Tracer.with_ ~sequential:true ~sim:build_sim "core.cluster.build" (fun () ->
        let c = Cluster.build ~seed:(Rng.int rng 1_000_000_000) w.cal in
        cluster_ref := Some c;
        c)
  in
  let ctx = { acc; cluster; seed; rng; tag; index = Hashtbl.create 8; timed; checks = [] } in
  (* Phase start: layer counters, host wall and CPU, reference-slice CPU. *)
  let start = ref None in
  drive cluster (fun () ->
      let phase = w.setup ctx in
      if timed then acc.setup_wall <- (Host.wall () -. w0) :: acc.setup_wall;
      events := 0;
      fibers_max := 0;
      start := Some (counters cluster, Host.wall (), Host.cpu (), acc.ref_cpu);
      phase ());
  let wall1 = Host.wall () and cpu1 = Host.cpu () in
  let c0, wall0, cpu0, ref0 = Option.get !start in
  if timed then begin
    let slices = acc.ref_cpu -. ref0 in
    acc.phase_wall <- (wall1 -. wall0 -. slices) :: acc.phase_wall;
    acc.phase_cpu <- (cpu1 -. cpu0 -. slices) :: acc.phase_cpu
  end;
  add_phase acc c0 (counters cluster);
  acc.events <- acc.events + !events;
  acc.fibers_max <- max acc.fibers_max !fibers_max;
  acc.storage_bytes <- Approach.storage_total cluster :: acc.storage_bytes;
  acc.repository <- acc.repository + Blobseer.Client.repository_bytes cluster.Cluster.service;
  acc.rounds <- acc.rounds + 1;
  (* Correctness checks run after the clocks stop. *)
  List.iter (fun f -> f ()) (List.rev ctx.checks);
  if round = 0 then
    List.iter
      (fun (subject, violations) ->
        error acc (Fmt.str "audit %s: %s" subject (String.concat "; " violations)))
      (Engine.audit_violations cluster.Cluster.engine)

let run_pass (w : workload) ~seed ~rounds =
  let acc = create_acc () in
  for round = 0 to rounds - 1 do
    try run_round acc w ~seed ~round
    with e -> error acc (Fmt.str "round %d: %s" round (Printexc.to_string e))
  done;
  acc
