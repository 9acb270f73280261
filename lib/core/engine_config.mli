(** Every engine setting in one immutable value.

    The library reads no environment: a program builds a [t] — from
    {!default}, from {!of_env} over the six [NRA_*] variables, and from
    its own flags — and installs it with [Nra.configure].  The
    engine-wide fields (the Domain pool, the buffer pool's frames, fault
    injection and the {!Nra_storage.Iosim} constants) are installed into
    the modules that own them.  The statement-level fields (the rewrite
    rules and Auto's attempt budget) are read from the config a
    statement is prepared with: a server snapshots the installed config
    when it is created, so its plan cache holds plans of one config. *)

(** A buffer-pool budget.  [Mb] converts to frames at the config's own
    [iosim.page_size_kb] ({!frame_count}), so it is the page size in
    effect, not the default one, that divides it. *)
type frames = Off | Pages of int | Mb of float

type t = {
  rules : Nra_opt.Config.rule list;  (** rewrite rules; [[]] is off *)
  domains : int;  (** worker domains; [0] is the serial path *)
  parallel_threshold : int;  (** rows before a kernel goes parallel *)
  morsel : int;  (** target rows per parallel chunk *)
  frames : frames;  (** the buffer pool's budget *)
  faults : Nra_storage.Fault.config;  (** fault injection *)
  iosim : Nra_storage.Iosim.config;  (** simulated-I/O constants *)
  auto_overrun : float;
      (** Auto's attempt budget is its estimate times this (at least
          1.0) … *)
  auto_floor_ms : float;  (** … and never below this many sim-I/O ms *)
}

val default : t
(** No rules; the host's core count minus one domains, threshold 256,
    morsels of 1024 rows; no buffer pool; no faults;
    {!Nra_storage.Iosim.default_config}; Auto overrun 4.0, floor 1 ms. *)

val frame_count : t -> int option
(** The frame budget to install: [None] for [Off]. *)

(** The range of each setting a program reads from outside, as the
    parser of its text form.  {!of_env} reads the variables through
    these, and a program's flags for the same settings must too, so a
    value is accepted or refused alike from either.  The [Error] says
    what was expected. *)
module Range : sig
  val domains : string -> (int, string) result
  (** Worker domains: an integer, at least 0. *)

  val pages : string -> (int, string) result
  (** A buffer pool's frames: an integer, at least 0 (0 is off). *)

  val megabytes : string -> (float, string) result
  (** A buffer pool's budget in MB: a finite number above 0. *)

  val page_size_kb : string -> (float, string) result
  (** The simulated page size in KB: a finite number above 0. *)

  val probability : string -> (float, string) result
  (** A fault probability, in \[0, 1\]. *)

  val seed : string -> (int, string) result
  (** A fault-injection seed: an integer, at least 0. *)
end

val of_env : (string -> string option) -> (t, string) result
(** {!default} with the [NRA_*] variables that [lookup] finds applied:
    - [NRA_REWRITE]: [all], [none] or a comma list of rules;
    - [NRA_DOMAINS]: a count, at least 0;
    - [NRA_PARALLEL_THRESHOLD], [NRA_MORSEL]: a count, at least 1;
    - [NRA_BUFFER_PAGES]: a frame count ([0] is off) or ["<X>mb"];
    - [NRA_FAULT_INJECT]: ["p[:seed[:retries[:palloc]]]"], the
      probabilities in \[0, 1\] and the retry count at least 0.

    A blank value counts as unset.  A malformed value is an [Error]
    naming the variable and its value. *)
