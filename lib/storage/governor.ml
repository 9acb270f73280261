(* Memory governor: a per-statement ledger over staged intermediates.

   The evaluators stage flat intermediates — the pre-nest wide staging
   in the NRA pipeline, the projection/aggregation buffers in
   post-processing, sub-block materializations — that historically
   lived unbounded on the OCaml heap no matter what frame budget the
   buffer pool enforced on base tables and hash build sides.  Every
   such staging now passes through [with_staged]:

   - its footprint (rows x schema width x 8-byte value slots) is
     charged to a live-bytes ledger with a high-water mark, reported by
     [explain --costs];
   - when the buffer pool is enabled and the staging would not fit the
     frame budget ([Iosim.pages rows > frames]), the rows are routed
     through a [Bufpool.Spill] partition and read straight back — the
     partition holds row positions, so the caller goes on reading the
     rows it staged (built, or read in place), while the
     page-outs/page-ins are charged and fault-drawn like any other
     spill traffic, and the staging never counts as resident;
   - stagings kept in memory record [max_resident_pages], so a test
     can assert that no unspilled intermediate ever exceeded the frame
     budget.

   Like the rest of the storage layer this is a residency simulation:
   rows stay on the heap, the charges are what is real.  Global and
   single-threaded; called owner-side only (staging happens outside
   the morsel kernels). *)

open Nra_relational

(* one boxed Value.t slot, the unit the ledger prices a column at *)
let slot_bytes = 8

type stats = {
  stagings : int;  (* intermediates charged *)
  staged_rows : int;
  high_water_bytes : int;  (* max live staged bytes since reset *)
  spilled_stagings : int;
  spilled_rows : int;
  max_resident_pages : int;  (* largest staging kept unspilled *)
}

let zero =
  {
    stagings = 0;
    staged_rows = 0;
    high_water_bytes = 0;
    spilled_stagings = 0;
    spilled_rows = 0;
    max_resident_pages = 0;
  }

let st = ref zero
let live = ref 0

let reset () =
  st := zero;
  live := 0

let () = Iosim.on_reset reset
let stats () = !st
let bytes ~rows ~width = rows * width * slot_bytes

let charge ~rows ~width =
  st := { !st with stagings = !st.stagings + 1; staged_rows = !st.staged_rows + rows };
  live := !live + bytes ~rows ~width;
  if !live > !st.high_water_bytes then st := { !st with high_water_bytes = !live }

let release ~rows ~width = live := max 0 (!live - bytes ~rows ~width)

let with_charged ~rows ~width f =
  charge ~rows ~width;
  Fun.protect ~finally:(fun () -> release ~rows ~width) f

let over_budget rows =
  match Bufpool.frames () with
  | None -> false
  | Some f -> Iosim.pages rows > f

(* write a staging of [rows] rows out and read it straight back: pages
   are charged (write-behind flushes, then one pinned read per page)
   while the rows stay where they are — the partition holds only their
   positions *)
let spill_roundtrip rows =
  Scratch.with_ints rows @@ fun buf ->
  let sp = Bufpool.Spill.create buf ~base:0 in
  Fun.protect
    ~finally:(fun () -> Bufpool.Spill.free sp)
    (fun () ->
      for i = 0 to rows - 1 do
        Bufpool.Spill.add sp i
      done;
      Bufpool.Spill.finish sp;
      Bufpool.Spill.iter sp ignore)

let with_staged ~rows ~width f =
  if rows > 0 && over_budget rows then begin
    (* spilled: the staging lives on "disk", not in frames — it is
       tallied but never counts toward live bytes; the spill pages are
       accounted through the pool instead *)
    st :=
      {
        !st with
        stagings = !st.stagings + 1;
        staged_rows = !st.staged_rows + rows;
        spilled_stagings = !st.spilled_stagings + 1;
        spilled_rows = !st.spilled_rows + rows;
      };
    spill_roundtrip rows;
    f ()
  end
  else begin
    let p = Iosim.pages rows in
    if p > !st.max_resident_pages then st := { !st with max_resident_pages = p };
    with_charged ~rows ~width f
  end
