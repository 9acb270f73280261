type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;
  entries : int;
}

let zero_stats =
  { hits = 0; misses = 0; invalidations = 0; evictions = 0; entries = 0 }

type entry = {
  prep : Nra.prepared;
  cat_gen : int;
  mutable used : int;  (* lookup tick of last use, for LRU *)
}

type t = {
  capacity : int;
  cat : Nra.Catalog.t;
  config : Nra.Engine_config.t;  (* every entry is prepared under it *)
  tbl : (string * string, entry) Hashtbl.t;
      (* (normalized SQL, strategy) — equal normalized text lexes to
         equal tokens *)
  mutable tick : int;
  mutable st : stats;
}

let bump ?(hits = 0) ?(misses = 0) ?(invalidations = 0) ?(evictions = 0) t =
  let s = t.st in
  t.st <-
    {
      s with
      hits = s.hits + hits;
      misses = s.misses + misses;
      invalidations = s.invalidations + invalidations;
      evictions = s.evictions + evictions;
    }

let create ?(capacity = 128) ~config cat =
  { capacity = Int.max 1 capacity; cat; config; tbl = Hashtbl.create 64;
    tick = 0; st = zero_stats }

let normalize sql =
  let b = Buffer.create (String.length sql) in
  let n = String.length sql in
  let rec go i ~in_lit ~pending_ws =
    if i >= n then ()
    else
      let c = sql.[i] in
      if in_lit then begin
        Buffer.add_char b c;
        (* '' is an escaped quote inside the literal *)
        if c = '\'' && not (i + 1 < n && sql.[i + 1] = '\'') then
          go (i + 1) ~in_lit:false ~pending_ws:false
        else if c = '\'' then begin
          Buffer.add_char b '\'';
          go (i + 2) ~in_lit:true ~pending_ws:false
        end
        else go (i + 1) ~in_lit:true ~pending_ws:false
      end
      else
        match c with
        | ' ' | '\t' | '\n' | '\r' -> go (i + 1) ~in_lit ~pending_ws:true
        | '-' when i + 1 < n && sql.[i + 1] = '-' ->
            (* a line comment separates tokens as whitespace does; the
               newline that ends it is whitespace too *)
            let eol =
              match String.index_from_opt sql i '\n' with
              | Some j -> j
              | None -> n
            in
            go eol ~in_lit ~pending_ws:true
        | _ ->
            if pending_ws && Buffer.length b > 0 then Buffer.add_char b ' ';
            Buffer.add_char b (Char.lowercase_ascii c);
            go (i + 1) ~in_lit:(c = '\'') ~pending_ws:false
  in
  go 0 ~in_lit:false ~pending_ws:false;
  let s = Buffer.contents b in
  (* trailing statement terminator is noise *)
  let s =
    let l = String.length s in
    if l > 0 && s.[l - 1] = ';' then String.sub s 0 (l - 1) else s
  in
  String.trim s

let stamp t = Nra.Catalog.global_generation t.cat

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, oldest) when oldest.used <= e.used -> acc
        | _ -> Some (k, e))
      t.tbl None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      bump t ~evictions:1
  | None -> ()

let find_or_prepare t ~strategy sql =
  t.tick <- t.tick + 1;
  let key = (normalize sql, Nra.strategy_to_string strategy) in
  let cat_gen = stamp t in
  match Hashtbl.find_opt t.tbl key with
  | Some e when e.cat_gen = cat_gen ->
      e.used <- t.tick;
      bump t ~hits:1;
      Ok e.prep
  | stale -> (
      if Option.is_some stale then begin
        Hashtbl.remove t.tbl key;
        bump t ~invalidations:1
      end;
      bump t ~misses:1;
      let prepared =
        match stale with
        | Some e ->
            (* the parse of a normalized text cannot go stale; its
               analysis and pricing can *)
            Nra.reprepare t.cat e.prep
        | None -> Nra.prepare ~config:t.config ~strategy t.cat sql
      in
      match prepared with
      | Error _ as e -> e
      | Ok prep ->
          if Nra.prepared_is_query prep then begin
            if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
            Hashtbl.replace t.tbl key
              { prep; cat_gen; used = t.tick }
          end;
          Ok prep)

let stats t = { t.st with entries = Hashtbl.length t.tbl }

let pp_stats ppf s =
  let looked = s.hits + s.misses in
  let rate = if looked = 0 then 0.0 else float_of_int s.hits /. float_of_int looked in
  Format.fprintf ppf
    "plan cache: %d hit%s / %d miss%s (%.0f%%), %d invalidated, %d evicted, \
     %d cached"
    s.hits
    (if s.hits = 1 then "" else "s")
    s.misses
    (if s.misses = 1 then "" else "es")
    (rate *. 100.0) s.invalidations s.evictions s.entries
