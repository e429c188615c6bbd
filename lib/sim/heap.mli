(** Minimal binary min-heap used by the event engine.

    Elements are ordered by a caller-supplied comparison.  The heap is
    a plain array-backed structure with O(log n) push/pop; it is kept
    separate from {!Engine} so that its invariants can be tested in
    isolation.

    A heap made with {!create_indexed} reports every element's array
    slot to the caller as it moves, so the caller can keep the slot on
    the element and remove it from the middle with {!remove} in
    O(log n) — the engine's eager cancellation. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t

val create_indexed : cmp:('a -> 'a -> int) -> index:('a -> int -> unit) -> 'a t
(** Like {!create}, but [index x i] is called whenever [x] lands in
    slot [i], and [index x (-1)] when [x] leaves the heap (popped,
    removed or cleared). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val remove : 'a t -> int -> unit
(** [remove t i] removes the element in slot [i] (as reported by the
    [index] callback).
    @raise Invalid_argument if [i] is not an occupied slot. *)

val iter_pruned : 'a t -> ('a -> bool) -> unit
(** [iter_pruned t f] calls [f] on elements top-down from the
    smallest, and visits the elements below [x] only when [f x] is
    [true].  Every element orders at or after the ones above it, so
    returning [false] once [x] is past a bound skips everything behind
    it: a search for the elements before a bound costs the number of
    such elements, not the heap's size. *)

val clear : 'a t -> unit
