(** Registry of reproducible experiments, one entry per paper figure or
    table. The CLI and the bench harness both drive experiments through
    this interface. *)

open Simcore

type output = { name : string; table : Stats.table }

type t = {
  id : string;  (** e.g. ["fig2a"] *)
  paper_ref : string;  (** e.g. ["Figure 2(a)"] *)
  description : string;
  run : Scale.t -> progress:(string -> unit) -> output list;
}

val all : t list
(** fig2a, fig2b, fig4, fig5a, fig6 and table1, the beyond-the-paper
    sweeps availability, durability, dr, dedup, digest, chains and
    precopy, and the ablation studies abl-prefetch, abl-stripe,
    abl-replication and abl-incremental. Each sweep runs once: fig2a and
    fig2b also emit Figure 3(a)/(b) (outputs [fig3a], [fig3b]) and fig5a
    emits Figure 5(b) (output [fig5b]). The quick-scale output of every
    entry is pinned byte for byte by [results/quick/<output>.csv]. *)

val find : string -> t option
(** Look up an experiment by id, e.g. ["fig2a"]. *)

val ids : string list
(** Ids of {!all}, in order. *)

val run_and_render :
  t -> Scale.t -> ?csv_dir:string -> progress:(string -> unit) -> unit -> string
(** Run the experiment, optionally write each output as CSV under
    [csv_dir], and return the rendered text tables. *)

val run_observed :
  t ->
  Scale.t ->
  ?csv_dir:string ->
  ?detail:bool ->
  progress:(string -> unit) ->
  unit ->
  string * Obs.Record.run
(** Like {!run_and_render}, but under an observability capture: also
    returns the recorded spans, metric snapshot and labelled tracks (one
    per simulated sweep point). [detail] additionally records per-chunk
    spans — large timelines; off by default. *)

val render_observability : Obs.Record.run -> string
(** Render a captured run as the flat metrics table followed by the
    checkpoint and restart critical-path phase breakdowns (when the run
    contains [ckpt] / [restart] root spans). *)
