(* Recency list over int arrays.  An entry lives in a slot: [key.(s)]
   is its page, [prev.(s)]/[next.(s)] link the slots in recency order
   ([head] the most recent, [tail] the least, -1 for none).  Free slots
   are chained through [next] from [free].  [index] is an
   open-addressing table (linear probing, power-of-two size, at most
   half full) from a key to its slot, -1 marking an empty cell; a
   removal shifts the rest of its probe run back instead of leaving a
   tombstone.  Nothing here allocates except growing the arrays. *)

type t = {
  capacity : int;
  mutable key : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable index : int array;
  mutable bits : int;  (* Array.length index = 1 lsl bits *)
  mutable head : int;
  mutable tail : int;
  mutable free : int;
  mutable size : int;
}

let first_slots = 8

(* chain slots [lo, hi) onto the free list, lowest first *)
let free_range t lo hi =
  for s = hi - 1 downto lo do
    t.next.(s) <- t.free;
    t.free <- s
  done

let create ~capacity =
  let t =
    {
      capacity;
      key = Array.make first_slots 0;
      prev = Array.make first_slots (-1);
      next = Array.make first_slots (-1);
      index = Array.make (2 * first_slots) (-1);
      bits = 4;
      head = -1;
      tail = -1;
      free = -1;
      size = 0;
    }
  in
  free_range t 0 first_slots;
  t

let size t = t.size
let slots t = Array.length t.key
let key t s = t.key.(s)

(* Fibonacci hashing: the top [bits] bits of the key times an odd
   constant *)
let home t k = (k * 0x2545F4914F6CDD1D) lsr (63 - t.bits)

(* the probe loops are top-level functions: a local closure over [t]
   and [k] would be allocated on every call *)
let rec probe t k i =
  let s = t.index.(i) in
  if s < 0 then -1
  else if t.key.(s) = k then s
  else probe t k ((i + 1) land (Array.length t.index - 1))

let find t k = probe t k (home t k)

let mem t k = find t k >= 0

let rec place t s i =
  if t.index.(i) < 0 then t.index.(i) <- s
  else place t s ((i + 1) land (Array.length t.index - 1))

let index_insert t s = place t s (home t t.key.(s))

(* empty cell [i], then move back every later entry of the probe run
   whose home does not lie cyclically in (i, j] *)
let rec shift t i j =
  let j = (j + 1) land (Array.length t.index - 1) in
  let s = t.index.(j) in
  if s < 0 then t.index.(i) <- -1
  else
    let h = home t t.key.(s) in
    let stays = if i <= j then i < h && h <= j else i < h || h <= j in
    if stays then shift t i j
    else begin
      t.index.(i) <- s;
      shift t j j
    end

(* [s] is in the index: find its cell, then close the gap *)
let rec index_delete t s i =
  if t.index.(i) = s then shift t i i
  else index_delete t s ((i + 1) land (Array.length t.index - 1))

let grow_slots t =
  let n = Array.length t.key in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.key <- extend t.key 0;
  t.prev <- extend t.prev (-1);
  t.next <- extend t.next (-1);
  free_range t n (2 * n)

let grow_index t =
  t.bits <- t.bits + 1;
  t.index <- Array.make (1 lsl t.bits) (-1);
  let s = ref t.head in
  while !s >= 0 do
    index_insert t !s;
    s := t.next.(!s)
  done

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
  t.head <- s

let promote t s =
  if t.head <> s then begin
    unlink t s;
    push_front t s
  end

let remove_slot t s =
  index_delete t s (home t t.key.(s));
  unlink t s;
  t.next.(s) <- t.free;
  t.free <- s;
  t.size <- t.size - 1

let add t k =
  if t.free < 0 then grow_slots t;
  if 2 * (t.size + 1) > Array.length t.index then grow_index t;
  let s = t.free in
  t.free <- t.next.(s);
  t.key.(s) <- k;
  index_insert t s;
  push_front t s;
  t.size <- t.size + 1;
  s

let touch t k =
  if t.capacity <= 0 then false
  else
    let s = find t k in
    if s >= 0 then begin
      promote t s;
      true
    end
    else begin
      (* the least recent entry goes first, so the slots never exceed
         the capacity *)
      if t.size >= t.capacity then remove_slot t t.tail;
      ignore (add t k);
      false
    end

let remove t k =
  let s = find t k in
  if s >= 0 then remove_slot t s

(* Least-recent slot satisfying [ok] — the buffer pool's eviction scan,
   which must skip pinned frames.  Walks from the tail, so the common
   case (the LRU entry itself is evictable) is O(1). *)
let rec walk_back t ok s =
  if s < 0 || ok s then s else walk_back t ok t.prev.(s)

let victim t ok = walk_back t ok t.tail

let clear t =
  Array.fill t.index 0 (Array.length t.index) (-1);
  t.head <- -1;
  t.tail <- -1;
  t.free <- -1;
  t.size <- 0;
  free_range t 0 (Array.length t.key)
