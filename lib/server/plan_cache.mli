(** A generation-checked plan cache over {!Nra.prepared} statements.

    A cache prepares every entry under the one engine config it was
    created with, so entries are keyed on (normalized statement text,
    strategy) alone, and stamped with the catalog's global generation
    ([Catalog.global_generation]) at preparation time.  A lookup whose
    stamp no longer matches discards the entry's plan and re-prepares:
    any DML, DDL, index change or [ANALYZE] bumps that generation, so a
    cached plan can never be replayed against a world it was not priced
    for.  A stale entry keeps its parse: the re-preparation analyzes and
    prices the kept command ({!Nra.reprepare}) without lexing or parsing
    the text again, since the parse of a normalized text cannot go
    stale.

    Normalization collapses whitespace and case and drops [--] line
    comments, all {e outside} quoted literals, so ["SELECT * FROM emp"]
    and ["select *  from emp -- all"] share an entry while
    ["… where name = 'Ann'"] and ["… = 'ANN'"] do not.  Two texts with
    equal normalizations lex to equal token streams, so the key needs
    nothing from the parser: a hit lexes and parses nothing, a first
    miss parses once, and a miss on a stale entry parses nothing.

    Only queries are cached ({!Nra.prepared_is_query}); DML/DDL pass
    through uncached — caching them would be self-defeating, since they
    invalidate the generation they would be keyed on.

    Eviction is LRU with a fixed capacity.  Each cache counts its own
    hits, misses, invalidations and evictions ({!stats}). *)

type t

val create : ?capacity:int -> config:Nra.Engine_config.t -> Nra.Catalog.t -> t
(** A cache bound to one catalog, preparing under [config].  [capacity]
    defaults to 128 and is clamped to [>= 1]. *)

val normalize : string -> string
(** The cache key's text component: lowercased, whitespace-collapsed,
    [--] comments dropped, with single-quoted literals preserved
    byte-for-byte and a trailing [;] removed. *)

val find_or_prepare :
  t ->
  strategy:Nra.strategy ->
  string ->
  (Nra.prepared, Nra.Exec_error.t) result
(** The cached plan when its generation stamps are current (a {e hit});
    otherwise prepare, cache (queries only, when preparation succeeds),
    and return (a {e miss}, additionally an {e invalidation} when a
    stale entry was displaced; that entry's kept parse is re-prepared).
    Preparation failures are not cached, and a stale entry whose
    re-preparation fails (its table was dropped, say) is gone, with the
    error a fresh {!Nra.prepare} gives. *)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;  (** entries discarded on generation mismatch *)
  evictions : int;  (** entries displaced by LRU capacity pressure *)
  entries : int;  (** current size *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
