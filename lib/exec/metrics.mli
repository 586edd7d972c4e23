(** Lightweight instrumentation: named monotonic-clock timers and
    counters, shared by the synthesis hot paths and the bench harness.

    All operations are safe to call from any domain (a single mutex
    guards the tables), so code running under {!Pool.parallel_map} can
    count and time freely.  Timers accumulate: timing the same name
    twice reports the total and the number of observations. *)

val now_ns : unit -> int64
(** Monotonic clock reading in nanoseconds (CLOCK_MONOTONIC). *)

val time : string -> (unit -> 'a) -> 'a
(** [time name f] runs [f ()], adds its wall time to timer [name]
    (even when [f] raises), and returns its result. *)

val add_ns : string -> int64 -> unit
(** Add a measured duration to timer [name] directly. *)

val incr : ?by:int -> string -> unit
(** Bump counter [name] (default [by:1]). *)

val count_allocation : string -> (unit -> 'a) -> 'a
(** [count_allocation name f] runs [f ()] and adds the words it
    allocated (per [Gc.quick_stat]) to counters [name ^ ".minor_words"]
    and [name ^ ".major_words"] — even when [f] raises.  On OCaml 5
    [Gc.quick_stat] is process-wide: the calling domain's live counts
    plus every other domain's {e sampled} counts, which the runtime saves
    at each stop-the-world minor collection and when a domain terminates
    (a terminated domain's words are kept).  So the words of worker
    domains spawned and joined inside [f] (e.g. {!Pool.parallel_map}
    with [jobs > 1]) are counted in full; a domain still running when
    [f] returns is counted only up to its last minor collection, and the
    process's other live domains (a serve daemon's workers, say) are
    counted too.  A d128 sweep reports the same minor-word count, within
    1%, at [--jobs 1] and [--jobs 2]. *)

val counter_value : string -> int
(** Current value of counter [name] ([0] if never bumped). *)

val timer_ns : string -> int64
(** Accumulated nanoseconds of timer [name] ([0L] if never observed). *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

val timers : unit -> (string * int64 * int) list
(** All timers as [(name, total_ns, observations)], sorted by name. *)

val reset : unit -> unit
(** Drop every counter and timer. *)

val report : unit -> unit
(** Log a one-line-per-entry summary through the [noc.exec] [Logs]
    source at [Info] level. *)

val to_json : unit -> string
(** Dump all counters and timers as a {!Json.document} of kind
    ["metrics"]: [{"schema": "metrics", "schema_version": n, "counters":
    {...}, "timers_ns": {"name": {"total_ns": n, "count": c}}}]. *)
