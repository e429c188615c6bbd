type 'a t = {
  cmp : 'a -> 'a -> int;
  index : 'a -> int -> unit;
  mutable data : 'a array;
  mutable size : int;
}

let create_indexed ~cmp ~index = { cmp; index; data = [||]; size = 0 }
let create ~cmp = create_indexed ~cmp ~index:(fun _ _ -> ())

let length t = t.size
let is_empty t = t.size = 0

let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let set t i x =
  t.data.(i) <- x;
  t.index x i

(* Both sifts move a hole rather than swapping, and place [x] last. *)
let rec sift_up t i x =
  let parent = (i - 1) / 2 in
  if i > 0 && t.cmp x t.data.(parent) < 0 then begin
    set t i t.data.(parent);
    sift_up t parent x
  end
  else set t i x

let rec sift_down t i x =
  let l = (2 * i) + 1 in
  if l >= t.size then set t i x
  else
    let r = l + 1 in
    let c = if r < t.size && t.cmp t.data.(r) t.data.(l) < 0 then r else l in
    if t.cmp t.data.(c) x < 0 then begin
      set t i t.data.(c);
      sift_down t c x
    end
    else set t i x

let push t x =
  grow t x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) x

let peek t = if t.size = 0 then None else Some t.data.(0)

let remove t i =
  if i < 0 || i >= t.size then invalid_arg "Heap.remove: no such slot";
  let x = t.data.(i) in
  t.size <- t.size - 1;
  t.index x (-1);
  if i < t.size then begin
    let last = t.data.(t.size) in
    if i > 0 && t.cmp last t.data.((i - 1) / 2) < 0 then sift_up t i last
    else sift_down t i last
  end

let pop_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let top = t.data.(0) in
  remove t 0;
  top

let pop t = if t.size = 0 then None else Some (pop_exn t)

let iter_pruned t f =
  let rec go i =
    if i < t.size && f t.data.(i) then begin
      go ((2 * i) + 1);
      go ((2 * i) + 2)
    end
  in
  go 0

let clear t =
  for i = 0 to t.size - 1 do
    t.index t.data.(i) (-1)
  done;
  t.size <- 0
