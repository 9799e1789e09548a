open Simcore

type output = { name : string; table : Stats.table }

type t = {
  id : string;
  paper_ref : string;
  description : string;
  run : Scale.t -> progress:(string -> unit) -> output list;
}

let fig2_3_outputs tag buffer scale ~progress =
  let ckpt, restart = Figures.fig2_3 scale ~buffer ~tag ~progress () in
  [ { name = "fig2" ^ tag; table = ckpt }; { name = "fig3" ^ tag; table = restart } ]

let named tables = List.map (fun (name, table) -> { name; table }) tables

let all =
  [
    {
      id = "fig2a";
      paper_ref = "Figure 2(a) + Figure 3(a)";
      description =
        "Checkpoint and restart completion time vs number of instances, 50 MB buffer, \
         all five approaches";
      run =
        (fun scale ~progress ->
          fig2_3_outputs "a" scale.Scale.buffer_small scale ~progress);
    };
    {
      id = "fig2b";
      paper_ref = "Figure 2(b) + Figure 3(b)";
      description =
        "Checkpoint and restart completion time vs number of instances, 200 MB buffer";
      run =
        (fun scale ~progress ->
          fig2_3_outputs "b" scale.Scale.buffer_large scale ~progress);
    };
    {
      id = "fig4";
      paper_ref = "Figure 4";
      description = "Snapshot size per VM instance, 50 MB and 200 MB buffers";
      run =
        (fun scale ~progress -> [ { name = "fig4"; table = Figures.fig4 scale ~progress () } ]);
    };
    {
      id = "fig5a";
      paper_ref = "Figure 5(a) + Figure 5(b)";
      description =
        "Four successive checkpoints of one instance (200 MB buffer): completion time \
         and cumulative storage";
      run =
        (fun scale ~progress ->
          let times, storage = Figures.fig5 scale ~progress () in
          [ { name = "fig5a"; table = times }; { name = "fig5b"; table = storage } ]);
    };
    {
      id = "fig6";
      paper_ref = "Figure 6";
      description = "CM1 checkpoint completion time for an increasing number of processes";
      run =
        (fun scale ~progress -> [ { name = "fig6"; table = Figures.fig6 scale ~progress () } ]);
    };
    {
      id = "table1";
      paper_ref = "Table 1";
      description = "CM1 per disk snapshot size";
      run =
        (fun scale ~progress ->
          [ { name = "table1"; table = Figures.table1 scale ~progress () } ]);
    };
    {
      id = "availability";
      paper_ref = "Beyond the paper (Section 3.2 fault model)";
      description =
        "Effective utilization, wasted work and recovery latency for supervised CM1 \
         under injected host/provider faults, MTBF x checkpoint-interval sweep";
      run = (fun scale ~progress -> named (Availability.tables scale ~progress ()));
    };
    {
      id = "durability";
      paper_ref = "Beyond the paper (Section 3.1.1 replication + durability)";
      description =
        "Restart success, scrub repair traffic and checkpoint overhead for supervised CM1 \
         under silent replica corruption, corruption-weight x replication x scrub-interval \
         sweep";
      run = (fun scale ~progress -> named (Durability.tables scale ~progress ()));
    };
    {
      id = "dr";
      paper_ref = "Beyond the paper (Section 5, availability under site loss)";
      description =
        "RPO/RTO, replication lag and primary checkpoint overhead for supervised CM1 on a \
         geo-replicated repository with a scripted primary-site disaster, link-latency x \
         checkpoint-interval x window sweep";
      run = (fun scale ~progress -> named (Dr.tables scale ~progress ()));
    };
    {
      id = "dedup";
      paper_ref = "Beyond the paper (Section 3.1.3 commit path, content addressing)";
      description =
        "Commit bytes shipped, repository growth and commit latency for dup-heavy vs \
         unique gang checkpoints, content-addressed dedup on vs off, plus clean-rewrite \
         suppression";
      run = (fun scale ~progress -> named (Dedup_bench.tables scale ~progress ()));
    };
    {
      id = "digest";
      paper_ref = "Beyond the paper (Section 3.1.3 commit path, digest tax)";
      description =
        "Bytes digested during COMMIT and over the whole epoch, commit latency and bytes \
         shipped for full-region rewrites at varying dirty fractions, dedup on/off plus a \
         digest-cache-off baseline";
      run = (fun scale ~progress -> named (Digest_bench.tables scale ~progress ()));
    };
    {
      id = "chains";
      paper_ref = "Beyond the paper (Section 3.1.2 versioning, maintenance plane)";
      description =
        "Restart latency, read amplification, reclaimed bytes and foreground interference \
         across snapshot-chain depths: BlobSeer retention/compaction vs qcow2 delta chains \
         with and without collapse";
      run = (fun scale ~progress -> named (Chains.tables scale ~progress ()));
    };
    {
      id = "precopy";
      paper_ref = "Beyond the paper (Section 3.2 snapshotting, live checkpointing)";
      description =
        "Guest-observed suspend window, checkpoint latency, shipped bytes and \
         copy-on-write interference for live (pre-copy + background commit) vs \
         stop-the-world checkpoints, interval x dirty-rate x pre-copy-rounds sweep";
      run = (fun scale ~progress -> named (Precopy.tables scale ~progress ()));
    };
    {
      id = "abl-prefetch";
      paper_ref = "Ablation (Section 3.1.4)";
      description = "Restart time with adaptive prefetching enabled vs disabled";
      run =
        (fun scale ~progress ->
          [ { name = "abl-prefetch"; table = Ablations.prefetch scale ~progress () } ]);
    };
    {
      id = "abl-stripe";
      paper_ref = "Ablation (Section 4.2.1)";
      description = "Checkpoint/restart time across BlobSeer stripe sizes";
      run =
        (fun scale ~progress ->
          [ { name = "abl-stripe"; table = Ablations.stripe_size scale ~progress () } ]);
    };
    {
      id = "abl-replication";
      paper_ref = "Ablation (Section 3.1.1)";
      description = "Checkpoint cost of chunk replication factors 1-3";
      run =
        (fun scale ~progress ->
          [ { name = "abl-replication"; table = Ablations.replication scale ~progress () } ]);
    };
    {
      id = "abl-incremental";
      paper_ref = "Ablation (Section 3.1.3)";
      description = "Incremental COMMIT vs whole-image re-commit across successive checkpoints";
      run =
        (fun scale ~progress ->
          [ { name = "abl-incremental"; table = Ablations.incremental scale ~progress () } ]);
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
let ids = List.map (fun e -> e.id) all

let run_and_render e scale ?csv_dir ~progress () =
  let outputs = e.run scale ~progress in
  let buf = Buffer.create 1024 in
  List.iter
    (fun { name; table } ->
      Buffer.add_string buf (Stats.render table);
      Buffer.add_char buf '\n';
      match csv_dir with
      | Some dir ->
          let path = Stats.write_csv ~dir ~name table in
          Buffer.add_string buf (Fmt.str "(csv written to %s)\n\n" path)
      | None -> ())
    outputs;
  Buffer.contents buf

let run_observed e scale ?csv_dir ?detail ~progress () =
  Obs.Record.capture ?detail (fun () -> run_and_render e scale ?csv_dir ~progress ())

let render_observability run =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "-- observability: metrics --\n";
  Buffer.add_string buf (Obs.Export.metrics_table run);
  List.iter
    (fun (root, title) ->
      let t = Obs.Export.phase_table run ~root in
      if t <> "" then begin
        Buffer.add_string buf (Fmt.str "\n-- observability: %s phase breakdown --\n" title);
        Buffer.add_string buf t
      end)
    [ ("ckpt", "checkpoint"); ("restart", "restart") ];
  Buffer.contents buf
