(** Dedup commit-path baseline (beyond the paper): a gang of instances
    dirties dup-heavy or fully unique content over the same base image
    and commits concurrently, with the content-addressed index enabled
    and disabled. Measures bytes physically shipped, repository growth,
    simulated commit latency, and clean-rewrite suppression; the restored
    dirty regions are digested so callers can assert dedup never changes
    the bytes read back. *)

open Simcore

type point = {
  dedup : bool;
  workload : string;  (** "dup-heavy" | "unique" *)
  instances : int;
  dirty_bytes_per_instance : int;
  commit_time : float;  (** mean simulated seconds, first commit *)
  rewrite_time : float;  (** mean simulated seconds, clean-rewrite commit *)
  shipped_bytes : int;
  deduped_bytes : int;
  suppressed_bytes : int;
  repository_bytes : int;  (** repository growth over the base image *)
  dedup_hits : int;
  image_digest : int64;  (** combined digest of every restored dirty region *)
}

val run : Scale.t -> ?progress:(string -> unit) -> unit -> point list
(** One point per (workload × dedup on/off). *)

val tables : Scale.t -> ?progress:(string -> unit) -> unit -> (string * Stats.table) list
(** {!run}, rendered as the named tables ["dedup-shipped"],
    ["dedup-commit-time"], ["dedup-repo"] and ["dedup-rewrite-time"]: one
    series per workload, x = dedup (0 off, 1 on). *)
