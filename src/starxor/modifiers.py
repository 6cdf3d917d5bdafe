"""Star and xor constructions, and the star of the xor product.

Each construction reads only the operands' state configurations and, letter by
letter, the transformations the letter induces. Nothing else about the operand
languages is consulted, which keeps every construction compatible with letter
renamings by design.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .automata import Dfa, block_rows, number_first, unique_first
from .transforms import LimitExceeded

DEFAULT_STATE_CAP = 2**22
# Cap on table entries (subset states x letters): 512 MB as int32. Read at
# each call of star_modifier.
TRANSITION_CAP = 2**27
# Subset masks are int64, so bit 62 is the highest an operand state can use.
MAX_OPERAND_STATES = 63
# Bound on the entries of the per-letter subset-image lookup tables, and of
# star_modifier's dense mask map (n <= 22 operand states: at most 16 MB of
# address space, of which only the pages a search writes are backed; 336 of
# 1,024 at witness (5,4)). It must stay below 2^31, so that the dense map's
# masks fit in int32.
TABLE_ENTRIES = 2**22


@dataclass(frozen=True, eq=False)
class SubsetDfa(Dfa):
    """DFA whose states stand for subsets of an underlying state set.

    state_masks is a read-only int64 array: state_masks[q] is the bitmask of
    the subset state q stands for; bit i is underlying state i (for products,
    bit x*n2+y is the pair (x, y)).
    """

    state_masks: np.ndarray = field(kw_only=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        masks = np.asarray(self.state_masks, dtype=np.int64).view()
        if masks.shape != (self.state_count,):
            raise ValueError(f"state_masks has shape {masks.shape}, expected ({self.state_count},)")
        masks.flags.writeable = False
        object.__setattr__(self, "state_masks", masks)

    def __eq__(self, other: object) -> bool:
        same = super().__eq__(other)
        if same is not True:
            return same
        return np.array_equal(self.state_masks, other.state_masks)

    __hash__ = Dfa.__hash__


def _image_tables(a: Dfa, dtype: type) -> tuple[np.ndarray, int]:
    """Per-letter lookup tables for the star's subset images, and the chunk width.

    A mask of a's states is read in chunks of width bits; tables[c, v, j] is
    the image under letter j of the states that the chunk value v stands
    for in chunk c, with the star's seed rule folded in: the bit of a final
    state carries the initial state's, so the union of the bits of f(E) is
    f(E), with the initial state joined when f(E) meets the finals. Each
    chunk costs one gather per image entry, and each table entry one step
    to build, so the mask is read in two halves of ceil(n / 2) bits, or,
    where those tables do not fit in TABLE_ENTRIES, in the fewest chunks of
    equal width whose tables do (one bit wide when none do). One table of
    all n bits would take 2^n rows, more than most searches ever gather
    from. Images are held as dtype. LimitExceeded is raised if a has more
    than MAX_OPERAND_STATES states.
    """
    n, letters = a.state_count, a.letter_count
    if n > MAX_OPERAND_STATES:
        raise LimitExceeded(
            f"{n} operand states exceed the limit of {MAX_OPERAND_STATES} for int64 subset masks"
        )
    width = next(
        w for w in (-(-n // c) for c in range(2, n + 2))
        if w == 1 or -(-n // w) * letters << w <= TABLE_ENTRIES
    )
    chunks = -(-n // width)
    seeded = np.left_shift(dtype(1), np.arange(n, dtype=dtype))
    seeded[a.finals] |= dtype(1 << a.initial)
    bits = np.zeros((chunks * width, letters), dtype=dtype)
    bits[:n] = seeded[a.delta]
    tables = np.zeros((chunks, 1 << width, letters), dtype=dtype)
    for b in range(width):
        low = 1 << b
        tables[:, low:2 * low] = tables[:, :low] | bits[b::width, None, :]
    return tables, width


def _mask_dtype(n: int) -> type:
    """int32 where the dense mask map fits (2^n <= TABLE_ENTRIES, so every
    mask of n bits is below 2^31), int64 beyond it."""
    return np.int32 if 1 << n <= TABLE_ENTRIES else np.int64


def _star_images(a: Dfa, dtype: type) -> tuple[Callable[..., np.ndarray], int]:
    """The star's step on subset masks of a's states, and the mask of a's finals.

    images(masks, letters=slice(None)) is the (len(masks), letters) array of
    the successor masks under the letters in the slice: the empty set moves
    as {initial} does, any other E to f(E), and the initial state joins an
    image that meets a's finals. Masks and images are held as dtype.
    LimitExceeded is raised if a has more than MAX_OPERAND_STATES states.
    """
    tables, width = _image_tables(a, dtype)
    fmask = dtype(sum(1 << q for q in a.finals.tolist()))
    ibit = dtype(1 << a.initial)
    chunk = dtype((1 << width) - 1)

    def images(masks: np.ndarray, letters: slice = slice(None)) -> np.ndarray:
        masks = np.where(masks == 0, ibit, masks)
        out = np.take(tables[0][:, letters], masks & chunk, axis=0)
        for c in range(1, len(tables)):
            out |= np.take(tables[c][:, letters], (masks >> (width * c)) & chunk, axis=0)
        return out

    return images, fmask


def star_modifier(
    a: Dfa,
    full: bool = False,
    cap_states: int = DEFAULT_STATE_CAP,
    normalize: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SubsetDfa:
    """Subset construction recognizing L(a)*.

    States are subsets E of a's states. The empty set is initial and final; a
    nonempty E is final when it meets a's finals. On letter j with action f:
    the empty set moves to {f(i)}, any other E to f(E), and in either case the
    initial state i joins the successor exactly when the image meets a's
    finals. By default only the forward closure of the empty set is built,
    breadth first, states numbered by first occurrence in (state, letter)
    order; full=True seeds the search with all 2^n subsets, state index equal
    to bitmask.

    normalize, when given, maps each 1-D block of successor masks to the
    masks that stand for them, before they are numbered, so the search runs
    over the empty set and normalized masks only. The result accepts L(a)*
    only where normalize is compatible with the step: measure_stx passes
    saturation, and uses the result only once saturation_premises_hold
    shows that it is. With normalize=None the tables are exactly those
    without it. full=True takes no normalize (ValueError): every mask would
    be a state already.

    The dense map (below) memoizes normalize: it hands it each image mask
    once per construction, the first time that mask is seen, and reads the
    state of a repeat from the map. So normalize must be pure, the same
    masks for the same masks on every call, and idempotent, fixing every
    mask it returns: a normalized mask is its own entry in the map. The
    sorted map normalizes every image.

    The frontier is expanded a block of rows at a time, every letter at once,
    into one table. When 2^n <= TABLE_ENTRIES, masks are held as int32 and
    map to state ids through a dense int32 array over all 2^n masks, whose
    memory is backed only where the search writes it; else they are held
    as int64 and map through a sorted array of the masks found so far.
    Either way state_masks comes out as int64. LimitExceeded is raised once
    the known subset states exceed cap_states or, times the letter count,
    TRANSITION_CAP; it is raised up front if a has more than
    MAX_OPERAND_STATES states.
    """
    if full and normalize is not None:
        raise ValueError("full=True builds every subset; it takes no normalize")
    n, letters = a.state_count, a.letter_count
    dtype = _mask_dtype(n)
    dense = dtype is np.int32
    images, fmask = _star_images(a, dtype)

    def check_caps(count: int) -> None:
        if count > cap_states:
            raise LimitExceeded(f"subset states exceed the cap of {cap_states}")
        if count * letters > TRANSITION_CAP:
            raise LimitExceeded(
                f"{count} subset states x {letters} letters exceed the cap of "
                f"{TRANSITION_CAP} transitions"
            )

    count = 1 << n if full else 1
    if full and count > cap_states:
        raise LimitExceeded(f"2^{n} subset states exceed the cap of {cap_states}")
    check_caps(count)

    step = block_rows(letters)
    # table and masks each start at one block's worth, so that a small
    # automaton maps no more than it writes; past that, one copy into the
    # largest array the caps allow, backed only where it is written and cut
    # to count at the end without a copy
    limit = min(cap_states, TRANSITION_CAP // max(1, letters))

    def room(arr: np.ndarray, used: int, needed: int) -> np.ndarray:
        if needed <= len(arr):
            return arr
        grown = np.empty((limit,) + arr.shape[1:], dtype=arr.dtype)
        grown[:used] = arr[:used]
        return grown

    table = np.empty((min(step, limit), letters), dtype=np.int32)
    # masks[q] is state q's mask; states are numbered in discovery order, so
    # masks[done:count] is the queue of states whose rows are still to come
    if full:
        masks = np.arange(count, dtype=dtype)
    else:
        masks = np.empty(min(step, limit), dtype=dtype)
        masks[0] = 0

    # number(img, count, ids) writes into ids the state ids of the
    # (normalized) masks in img, numbering the unseen ones count, count + 1,
    # ... by first occurrence, and returns the unseen masks in that order
    if dense:
        # dense map: slot[m] is 1 + the id of the state that mask m goes to,
        # 0 while m is unseen; with normalize, m is any image seen so far and
        # its state that of normalize(m). The map is a private anonymous
        # mapping, so the kernel zero-fills a page when it is first written
        # and the search pays only for the pages it touches; a shared one
        # would back a page on its first read. The array's buffer holds the
        # mapping, which is unmapped when number goes.
        slot = np.frombuffer(mmap.mmap(-1, 4 << n, flags=mmap.MAP_PRIVATE), dtype=np.int32)
        slot[masks[:count]] = np.arange(1, count + 1, dtype=np.int32)

        def number(img: np.ndarray, count: int, ids: np.ndarray) -> np.ndarray:
            # every mask is in range, so mode="clip" only skips the buffered
            # copy that the default mode makes of ids
            np.take(slot, img, out=ids, mode="clip")
            unseen = np.flatnonzero(ids == 0)
            found = img[unseen]
            if normalize is None or not len(found):
                fresh = number_first(slot, found, count + 1)
            else:
                # each unseen image once, in first-occurrence order, which
                # slot numbers only for the moment; the normalized masks
                # keep that order, so the unseen ones among them are
                # numbered as if every image had been normalized
                raw = number_first(slot, found, 1)
                slot[raw] = 0
                sat = normalize(raw)
                fresh = number_first(slot, sat[slot[sat] == 0], count + 1)
                slot[raw] = slot[sat]
            ids[unseen] = slot[found]
            ids -= 1
            return fresh
    else:
        # sorted map: known holds every mask found so far, sorted, and
        # known_id its state
        known = masks[:count].copy()
        known_id = np.arange(count, dtype=np.int32)

        def number(img: np.ndarray, count: int, ids: np.ndarray) -> np.ndarray:
            nonlocal known, known_id
            if normalize is not None:
                img = normalize(img)
            values, first, inverse = unique_first(img)
            at = np.searchsorted(known, values)
            old = known[np.minimum(at, len(known) - 1)] == values
            value_ids = np.empty(len(values), dtype=np.int32)
            value_ids[old] = known_id[at[old]]
            new = np.flatnonzero(~old)
            by_first = new[np.argsort(first[new])]
            value_ids[by_first] = np.arange(count, count + len(new), dtype=np.int32)
            known = np.insert(known, at[new], values[new])
            known_id = np.insert(known_id, at[new], value_ids[new])
            ids[:] = value_ids[inverse]
            return values[by_first]

    done = 0
    while done < count:
        rows = min(step, count - done)
        table = room(table, done, done + rows)
        img = images(masks[done:done + rows]).reshape(-1)
        fresh = number(img, count, table[done:done + rows].reshape(-1))
        check_caps(count + len(fresh))
        masks = room(masks, count, count + len(fresh))
        masks[count:count + len(fresh)] = fresh
        count += len(fresh)
        done += rows
    table.resize((count, letters), refcheck=False)
    masks.resize(count, refcheck=False)
    return SubsetDfa(
        letters,
        count,
        0,
        np.flatnonzero((masks == 0) | ((masks & fmask) != 0)),
        table,
        state_masks=masks,
    )


def xor_modifier(a: Dfa, b: Dfa) -> Dfa:
    """Product DFA on all state pairs, final when exactly one side is final.

    Pair (x, y) is state x*n2+y; the shared letter j acts coordinatewise.
    """
    if a.letter_count != b.letter_count:
        raise ValueError("xor needs operands over a common alphabet")
    n1, n2 = a.state_count, b.state_count
    delta = (a.delta[:, None, :] * n2 + b.delta[None, :, :]).reshape(n1 * n2, a.letter_count)
    first_final = np.zeros(n1, dtype=bool)
    first_final[a.finals] = True
    second_final = np.zeros(n2, dtype=bool)
    second_final[b.finals] = True
    zone = first_final[:, None] != second_final[None, :]
    return Dfa(a.letter_count, n1 * n2, a.initial * n2 + b.initial, np.flatnonzero(zone), delta)


def stx(
    a: Dfa,
    b: Dfa,
    cap_states: int = DEFAULT_STATE_CAP,
    normalize: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SubsetDfa:
    """Star of the symmetric difference: star_modifier(xor_modifier(a, b)).

    States are subsets of the n1 x n2 pair grid (bit x*n2+y is the pair
    (x, y)); the zone of product finals is the pairs where exactly one side is
    final, and the seed pair (initial, initial) plays the star's initial
    state. The n1*n2-state product is built in full first, which costs little
    next to the subset construction; the cap and normalize go to
    star_modifier, which builds the forward closure of the empty set. For
    the table of all 2^(n1*n2) subsets, call
    star_modifier(xor_modifier(a, b), full=True).
    """
    return star_modifier(xor_modifier(a, b), cap_states=cap_states, normalize=normalize)


def saturation_premises_hold(product: Dfa, n1: int, n2: int) -> bool:
    """Does saturation commute with the star's step on product, exactly?

    product is an automaton on the n1 x n2 grid, state x*n2+y the cell
    (x, y), such as xor_modifier(a, b); step is star_modifier's step on it,
    the seed rule included, and sat is saturation (saturate_masks). For
    every right triangle t = {(x, y), (x, y'), (x', y)}, x != x' and
    y != y', with fourth corner c = (x', y'), the saturation lemma needs
      (P1) on every letter, step({c}) lies in sat(step(t)), and
      (P2) c is final only if t meets the finals.

    Together they make T -> sat(T) a morphism from star_modifier(product)
    onto star_modifier(product, normalize=sat), so the two accept the same
    language. On nonempty sets step preserves unions, and sat(T) is reached
    from T by adding, one at a time, the fourth corner c of a right triangle
    t in T. Such a step gives step(T + c) = step(T) + step({c}), inside
    sat(step(T)) by (P1), since step(t) lies in step(T); so sat(step(T + c))
    = sat(step(T)), and by (P2) T + c is final exactly when T is. Hence
    sat(step(sat T)) = sat(step T) and sat(T) is final exactly when T is,
    for every T, reachable or not.

    The check reads both off the grid, with no letter loop and no
    saturation. It holds exactly when
      (a) product acts coordinatewise: every letter maps each cell (x, y)
          to (f(x), g(y)) for a pair of maps f of the rows and g of the
          columns, and
      (b) (P2) holds.
    (a) and (b) give (P1) on every letter. Write f(x, y) for (f(x), g(y)).
    If f(x) = f(x') or g(y) = g(y'), f(c) is one of the three cells of
    f(t); otherwise f(t) is a right triangle with fourth corner f(c), whose
    rectangle saturation fills. Either way f(c) lies in sat(f(t)), inside
    sat(step(t)). If f(c) is final, f(t) meets the finals: in the first
    case because f(c) is in f(t), in the second by (P2) on f(t). So the
    seed joins step(t) whenever it joins step({c}), and step({c}) lies in
    sat(step(t)). On a product, then, the verdict is that of checking (P1)
    letter by letter; any other automaton is refused, and measure_stx
    answers a refusal with the full subset table.
    """
    n = n1 * n2
    if product.state_count != n:
        raise ValueError(f"a {n1} x {n2} grid has {n} cells, not {product.state_count}")
    # (a): a cell's row image must not depend on its column, nor its
    # column image on its row
    rows, cols = np.divmod(product.delta.reshape(n1, n2, product.letter_count), n2)
    if not ((rows == rows[:, :1]).all() and (cols == cols[:1]).all()):
        return False
    # (b): with x = x' or y = y' the corner is one of the three cells, so
    # every (x, x', y, y') is tested at once
    final = np.zeros(n, dtype=bool)
    final[product.finals] = True
    final = final.reshape(n1, n2)
    met = final[:, None, :, None] | final[:, None, None, :] | final[None, :, :, None]
    return not (final[None, :, None, :] & ~met).any()
