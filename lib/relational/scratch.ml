let cap = 16

(* [free] has [cap] slots; an empty slot holds [[||]].  Borrowing and
   releasing scan the slots in place, so they allocate nothing. *)
type state = {
  free : int array array;
  mutable live : int;
  mutable high_water : int;
}

let key =
  Domain.DLS.new_key (fun () ->
      { free = Array.make cap [||]; live = 0; high_water = 0 })

let rec pow2_at_least k n = if k >= n then k else pow2_at_least (2 * k) n

(* lengths are rounded up to a multiple of a sixteenth of the next
   power of two, so at most ~1/8 of a buffer is slack and a borrow of
   a slightly larger size than last time still fits *)
let rounded n =
  let step = pow2_at_least 16 n / 16 in
  (n + step - 1) / step * step

(* the slot of the shortest buffer satisfying [ok], or -1 *)
let shortest free ok =
  let best = ref (-1) in
  for i = 0 to cap - 1 do
    let b = free.(i) in
    if ok b
       && (!best < 0 || Array.length b < Array.length free.(!best))
    then best := i
  done;
  !best

let borrow n =
  let st = Domain.DLS.get key in
  st.live <- st.live + 1;
  if st.live > st.high_water then st.high_water <- st.live;
  let i =
    shortest st.free (fun b -> Array.length b > 0 && Array.length b >= n)
  in
  if i < 0 then Array.make (rounded n) 0
  else begin
    let b = st.free.(i) in
    st.free.(i) <- [||];
    b
  end

let release b =
  let st = Domain.DLS.get key in
  st.live <- st.live - 1;
  (* an empty slot if there is one, else the shortest buffer's if [b]
     is longer: the longer buffers fit more borrows *)
  let i = shortest st.free (fun _ -> true) in
  if Array.length b > Array.length st.free.(i) then st.free.(i) <- b

let with_ints n f =
  let b = borrow n in
  Fun.protect ~finally:(fun () -> release b) (fun () -> f b)

let grow buf ~keep n =
  if n <= Array.length buf then buf
  else begin
    let bigger = borrow (max n (2 * Array.length buf)) in
    Array.blit buf 0 bigger 0 keep;
    release buf;
    bigger
  end

let live () = (Domain.DLS.get key).live
let high_water () = (Domain.DLS.get key).high_water

let reset_high_water () =
  let st = Domain.DLS.get key in
  st.high_water <- st.live

let free_count () =
  Array.fold_left
    (fun n b -> if Array.length b > 0 then n + 1 else n)
    0 (Domain.DLS.get key).free
