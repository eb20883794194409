(** The run pipeline: stress and fuzz jobs, their observers, their merge, and
    parallel campaigns over configurations × seeds.

    The paper's evaluation (§4) is a sweep: the random coherence tester and
    the fuzzer, run across the 12 configurations of Figure 2 under many
    seeds.  Every such run is one {!job}; {!run_job} is the only code that
    executes one and {!merge} the only way results combine.  The [stress],
    [fuzz] and [campaign] commands enumerate jobs, hand them to {!run_jobs}
    and render what comes back; the experiments reuse {!stress_system},
    {!run_job} and {!observe}.

    {b Determinism invariant}: results come back in job order and fold in job
    order with the associative {!merge}; every job is a self-contained
    deterministic simulation that arms its own observers on the domain that
    runs it.  [-j N] may only change wall-clock time, never output
    ([test/test_campaign.ml], [test/cli.t], [tools/check_campaign.sh]).

    {b Crash isolation}: a job whose harness raises comes back as
    {!Xguard_parallel.Pool.Failed} and counts as a failed, crashed run. *)

(** {2 Jobs} *)

type chaos = {
  period : int option;
  respond_probability : float option;
  requests_only : bool option;
  tarpit : int option;
}
(** The fuzz command's chaos-accelerator knobs; [None] keeps
    {!Fuzz_tester.run}'s default. *)

type work =
  | Stress_run of { ops : int }  (** random tester, [ops] operations per core *)
  | Fuzz_run of { cpu_ops : int; chaos : chaos }
      (** chaos accelerator against [cpu_ops] checked CPU operations per core *)

type job = {
  cfg : Config.t;  (** faults, recovery and topology already applied *)
  seed : int;  (** replaces [cfg.seed]; the whole run derives from it *)
  label : string;  (** names the job's metrics block and span timeline *)
  work : work;
}
(** One self-contained run, and exactly what
    [xguard stress|fuzz -c CFG --seed S --seeds 1] runs for seed [S].  A
    stress job builds [Config.stress_sized { cfg with seed }] and drives the
    random tester over 6 blocks with RNG seed [seed * 7 + 1]; a fuzz job runs
    [Fuzz_tester.run { cfg with seed }]. *)

type observers = {
  trace : Xguard_trace.Trace.t option;
      (** cleared and armed around each job, failure trails cut from it;
          process-wide, so only with one worker *)
  coverage : bool;  (** keep each job's transition-coverage groups *)
  spans : bool;  (** arm a span recorder per job *)
  timeline : bool;  (** ... buffering a Perfetto timeline *)
  metrics : bool;  (** arm a metrics recorder per job, over a span recorder *)
  watchdog : Xguard_obs.Watchdog.config option;
}

val no_observers : observers

(** {2 Results and their merge} *)

type totals = {
  failures : int;
      (** a stress run fails on data errors, deadlock or guard violations; a
          fuzz run only on crash or deadlock (violations are what the fuzzer
          provokes, and data checks are advisory under its shared-rw pool —
          paper §2.3.2); a crashed job fails *)
  crashes : int;  (** jobs whose harness raised *)
  coverage : System.coverage_sets;
  spans : Xguard_obs.Spans.Summary.t;
  timelines : (string * Xguard_obs.Spans.recorder) list;  (** (label, recorder) *)
  metrics : Xguard_obs.Metrics.Summary.t;
  trails : (string * string) list;  (** (header, text) failure event trails *)
}
(** What jobs add up to. *)

val empty : totals

val merge : totals -> totals -> totals
(** Associative with identity {!empty}: counts add, lists and metrics blocks
    concatenate, span histograms merge, coverage sets merge by name in
    first-seen order. *)

type outcome = Stressed of Random_tester.outcome | Fuzzed of Fuzz_tester.outcome

type result = {
  job : job;
  outcome : outcome;
  violations : int;
  link_faults : (string * int) list;  (** [[]] when the link cannot fault *)
  quarantined : bool;
  rejoins : int;
  permakilled : bool;
  budget_trips : int;
  totals : totals;  (** this job's share of the merge *)
}
(** Guard counts are summed over guards. *)

val totals : result Xguard_parallel.Pool.outcome array -> totals
(** Fold job-ordered results with {!merge}; a crashed job counts as one
    failure and one crash. *)

val injected_total : (string * int) list -> int
(** Sum of the [injected.*] entries of a [link_faults] list. *)

val count_of : (string * int) list -> string -> int
(** One entry of a [link_faults] list, 0 when absent. *)

(** {2 Running jobs} *)

type observed = {
  recorder : Xguard_obs.Spans.recorder option;
  span_summary : Xguard_obs.Spans.Summary.t;
  metrics_summary : Xguard_obs.Metrics.Summary.t;
}

val observe : observers -> label:string -> (unit -> 'a) -> 'a * observed
(** Run [f] under fresh span and metrics recorders as [observers] asks and
    return their summaries, the metrics block named [label].  The one place
    a run arms recorders. *)

val stress_system :
  ?trace:Xguard_trace.Trace.t -> ops:int -> seed:int -> Config.t ->
  System.t * Random_tester.outcome
(** The stress job's simulation, {!job} spells out how; [trace] is cleared
    after the build and armed around the tester. *)

val run_job : ?trail_header:(job -> string -> string) -> observers -> job -> result
(** [trail_header job where] titles a failure trail; [where] is
    [" for block 0xA"] or [""]. *)

val run_jobs :
  ?workers:int -> ?trail_header:(job -> string -> string) -> observers -> job array ->
  result Xguard_parallel.Pool.outcome array
(** {!run_job} on [workers] domains (default 1), results in job order. *)

(** {2 Campaigns} *)

type kind =
  | Stress  (** random coherence tester on every selected configuration *)
  | Fuzz  (** chaos accelerator on every selected XG configuration *)
  | Both

type t = {
  tables : Xguard_stats.Table.t list;  (** one summary table per kind run *)
  span_tables : Xguard_stats.Table.t list;
      (** per-configuration latency attribution; only with [observers.spans] *)
  totals : totals;
  jobs : int;
}

val job_count : kind -> configs:Config.t list -> seeds:int -> int

val run :
  ?workers:int ->
  ?observers:observers ->
  ?stress_ops:int ->
  ?fuzz_cpu_ops:int ->
  ?base_seed:int ->
  ?replay_flags:string ->
  kind ->
  configs:Config.t list ->
  seeds:int ->
  unit ->
  t
(** [seeds] jobs per selected configuration and kind: stress before fuzz,
    configuration-major, seed-minor, job [i] seeded from [base_seed]
    (default 42) and [i] by {!Xguard_parallel.Pool.Seed}.  [stress_ops]
    defaults to 500, [fuzz_cpu_ops] to 300.  Each failure trail's header
    names the command that replays it,
    [xguard stress|fuzz -c CFG --seed S --seeds 1 [--ops N]] followed by
    [replay_flags] (the fault, recovery and topology options the
    configurations were built with).  The fuzz command runs 300 CPU
    operations per core, so a fuzz trail replays exactly at the default
    [fuzz_cpu_ops] only; other sizes say so in the header. *)

val render : t -> string
(** Tables, coverage matrices (when collected) and a [PASS]/[FAIL] line. *)

val passed : t -> bool
