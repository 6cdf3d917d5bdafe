"""Shared oracles for the tests, independent of the package's own algorithms."""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Callable, Iterable, Sequence

import numpy as np

from starxor import (
    DEFAULT_LETTER_CAP,
    DEFAULT_STATE_CAP,
    Dfa,
    LimitExceeded,
    MonsterSpec,
    NerodePartition,
    PairLetter,
    Transformation,
    count_constrained,
    enumerate_all,
    final_zone,
    is_equivalent,
    minimize,
    monster2,
    preimage_by_renaming,
    stx,
)
from starxor import modifiers
from starxor.automata import _class_quotient, _is_stable, block_rows, unique_first
from starxor.reports import verdict
from starxor.tableaux import saturate_masks
from starxor.transforms import transformation_count


def run(a: Dfa, word: Iterable[int]) -> int:
    """State reached from the initial one on the given letter sequence."""
    q = a.initial
    for j in word:
        if not 0 <= j < a.letter_count:
            raise ValueError(f"letter {j} out of range")
        q = a.delta.item(q, j)
    return q


def accepts(a: Dfa, word: Iterable[int]) -> bool:
    return run(a, word) in a.finals


def same_language(a: Dfa, b: Dfa) -> bool:
    """Language equality over a shared alphabet, by product exploration.

    The reference for is_equivalent, which refines both DFAs' states into
    one Nerode partition instead: a breadth-first walk over reachable state pairs that fails at the first pair
    whose finality differs.
    """
    assert a.letter_count == b.letter_count
    delta_a, delta_b = a.delta.tolist(), b.delta.tolist()
    finals_a, finals_b = set(a.finals.tolist()), set(b.finals.tolist())
    start = (a.initial, b.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        p, q = queue.popleft()
        if (p in finals_a) != (q in finals_b):
            return False
        for j in range(a.letter_count):
            nxt = (delta_a[p][j], delta_b[q][j])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def equivalent_by_minimizing(a: Dfa, b: Dfa) -> bool:
    """is_equivalent as it was first written: equal canonical minimal DFAs.

    minimize numbers the classes in breadth-first order from the initial
    state, letters in index order, so two DFAs accept the same language
    exactly when their minimized tables and finals are equal.
    """
    if a.letter_count != b.letter_count:
        raise ValueError("language comparison needs a common alphabet")
    ma, mb = minimize(a), minimize(b)
    return (
        ma.state_count == mb.state_count
        and np.array_equal(ma.finals, mb.finals)
        and np.array_equal(ma.delta, mb.delta)
    )


def check_1_uniformity(
    modifier: Callable[..., Dfa],
    dfas: Dfa | Sequence[Dfa],
    phi: Sequence[int],
) -> bool:
    """Does the construction commute with the letter renaming phi?

    Compares modifier(preimages) against preimage(modifier(operands)) as
    languages. True for any construction that only reads state configurations
    and per-letter actions.
    """
    operands = (dfas,) if isinstance(dfas, Dfa) else tuple(dfas)
    renamed_first = modifier(*[preimage_by_renaming(d, phi) for d in operands])
    renamed_last = preimage_by_renaming(modifier(*operands), phi)
    return is_equivalent(renamed_first, renamed_last)


def blocks(part: NerodePartition) -> tuple[frozenset[int], ...]:
    """The classes of a partition as state sets, in class order."""
    out: list[set[int]] = [set() for _ in range(part.class_count)]
    for q, c in enumerate(part.class_of.tolist()):
        out[c].add(q)
    return tuple(frozenset(b) for b in out)


def letter_index(spec: MonsterSpec, letter: PairLetter | Iterable[Transformation]) -> int:
    """Rank of a shared-alphabet letter in the monsters' lexicographic enumeration."""
    if isinstance(letter, PairLetter):
        combo: tuple[Transformation, ...] = (letter.first, letter.second)
    else:
        combo = tuple(letter)
    if len(combo) != len(spec.sizes):
        raise ValueError("letter arity does not match spec.sizes")
    index = 0
    for t, n in zip(combo, spec.sizes):
        if t.n != n:
            raise ValueError(f"coordinate on {t.n} states where {n} expected")
        rank = 0
        for img in t.images:
            rank = rank * n + img
        index = index * transformation_count(n) + rank
    return index


def random_dfa(
    rng: random.Random,
    max_states: int = 4,
    max_letters: int = 4,
) -> Dfa:
    n = rng.randint(1, max_states)
    width = rng.randint(1, max_letters)
    delta = tuple(
        tuple(rng.randrange(n) for _ in range(width))
        for _ in range(n)
    )
    finals = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Dfa(width, n, rng.randrange(n), finals, delta)


def random_dfa_over(
    rng: random.Random,
    letter_count: int,
    max_states: int = 4,
) -> Dfa:
    n = rng.randint(1, max_states)
    delta = tuple(
        tuple(rng.randrange(n) for _ in range(letter_count))
        for _ in range(n)
    )
    finals = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Dfa(letter_count, n, rng.randrange(n), finals, delta)


def cycle_dfa(n: int) -> Dfa:
    """One letter stepping state q to q+1 mod n; the last state is final."""
    return Dfa(1, n, 0, frozenset({n - 1}), tuple(((q + 1) % n,) for q in range(n)))


def random_renaming(
    rng: random.Random,
    letter_count: int,
    max_new: int = 4,
) -> tuple[int, ...]:
    return tuple(
        rng.randrange(letter_count)
        for _ in range(rng.randint(1, max_new))
    )


def distinguishable_classes(a: Dfa) -> int:
    """Minimal state count for L(a), by the pair-marking table method.

    A different algorithm family from signature refinement: a boolean table
    over pairs of reachable states, marked where finality differs, then
    marked wherever some letter leads to a marked pair, to a fixpoint. A
    reachable state starts a class when it is marked against every state
    before it.
    """
    rows = a.delta.tolist()
    reachable = {a.initial}
    frontier = [a.initial]
    while frontier:
        q = frontier.pop()
        for t in rows[q]:
            if t not in reachable:
                reachable.add(t)
                frontier.append(t)
    states = np.array(sorted(reachable))
    index = np.zeros(a.state_count, dtype=np.intp)
    index[states] = np.arange(len(states))
    # succ[p, j] is the position in states of state p's successor on letter j
    succ = index[a.delta[states]]
    final = np.isin(states, a.finals)
    marked = final[:, None] != final[None, :]
    count = np.count_nonzero(marked)
    while True:
        for t in succ.T:
            # (p, q) gets marked when (succ[p, j], succ[q, j]) is
            marked |= np.take(np.take(marked, t, axis=0), t, axis=1)
        before, count = count, np.count_nonzero(marked)
        if count == before:
            break
    return len(states) - int(np.tril(~marked, -1).any(axis=1).sum())


def star_of_xor_size(a: Dfa, b: Dfa) -> int:
    """Minimal state count for (L(a) xor L(b))*, read off the operands' delta.

    Textbook route, sharing no construction with the package: the product
    pairs (x, y) plus a fresh accepting start state, which reads like the
    product start pair and is re-entered whenever a product final is reached;
    subset determinization from {start}; then the pair-marking count.
    """
    start = "start"
    seed = (a.initial, b.initial)
    rows_a, rows_b = a.delta.tolist(), b.delta.tolist()
    finals_a, finals_b = set(a.finals.tolist()), set(b.finals.tolist())

    def pair_final(p: tuple[int, int]) -> bool:
        return (p[0] in finals_a) != (p[1] in finals_b)

    def step(subset: frozenset, j: int) -> frozenset:
        sources = {q for q in subset if q != start}
        if start in subset:
            sources.add(seed)
        image = {(rows_a[x][j], rows_b[y][j]) for x, y in sources}
        if any(pair_final(p) for p in image):
            image.add(start)
        return frozenset(image)

    first = frozenset({start})
    index = {first: 0}
    order = [first]
    rows = []
    for subset in order:
        row = []
        for j in range(a.letter_count):
            nxt = step(subset, j)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    finals = frozenset(
        i
        for i, subset in enumerate(order)
        if start in subset or any(pair_final(q) for q in subset if q != start)
    )
    return distinguishable_classes(Dfa(a.letter_count, len(order), 0, finals, tuple(rows)))


def xor_product_reference(a: Dfa, b: Dfa) -> Dfa:
    """The product DFA of xor_modifier, built pair by pair from the operands' rows."""
    rows_a, rows_b = a.delta.tolist(), b.delta.tolist()
    finals_a, finals_b = set(a.finals.tolist()), set(b.finals.tolist())
    n2 = b.state_count
    delta = tuple(
        tuple(rows_a[x][j] * n2 + rows_b[y][j] for j in range(a.letter_count))
        for x in range(a.state_count)
        for y in range(n2)
    )
    finals = frozenset(
        x * n2 + y
        for x in range(a.state_count)
        for y in range(n2)
        if (x in finals_a) != (y in finals_b)
    )
    return Dfa(a.letter_count, a.state_count * n2, a.initial * n2 + b.initial, finals, delta)


def _byte_tables(images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # images describes a map on bit positions; table c maps any byte of bits
    # in chunk c (positions 8c..8c+7) to the OR of their image bits.
    n = len(images)
    tables = []
    for base in range(0, n, 8):
        width = min(8, n - base)
        table = [0] * 256
        for byte in range(1, 1 << width):
            low = (byte & -byte).bit_length() - 1
            table[byte] = table[byte & (byte - 1)] | (1 << images[base + low])
        tables.append(tuple(table))
    return tuple(tables)


def _image(mask: int, tables: tuple[tuple[int, ...], ...]) -> int:
    out = 0
    c = 0
    while mask:
        out |= tables[c][mask & 255]
        mask >>= 8
        c += 1
    return out


def subset_bfs_reference(a: Dfa, full: bool = False):
    """star_modifier's tables, one state and one letter at a time in pure Python.

    Returns (delta, state_masks, finals, initial) as tuples and a frozenset:
    the empty set is state 0 and every new subset is numbered when a
    queue-driven breadth-first pass first meets it, letters in index order;
    full=True numbers all 2^n subsets by bitmask instead.
    """
    rows_a = a.delta.tolist()
    n = a.state_count
    fmask = 0
    for q in a.finals.tolist():
        fmask |= 1 << q
    ibit = 1 << a.initial
    columns = [
        tuple(rows_a[q][j] for q in range(n))
        for j in range(a.letter_count)
    ]
    tables = [_byte_tables(col) for col in columns]
    empty_row_image = [1 << col[a.initial] for col in columns]

    def step(mask: int, j: int) -> int:
        img = empty_row_image[j] if mask == 0 else _image(mask, tables[j])
        return img | ibit if img & fmask else img

    if full:
        masks = list(range(1 << n))
        delta = tuple(
            tuple(step(mask, j) for j in range(a.letter_count))
            for mask in masks
        )
    else:
        index = {0: 0}
        masks = [0]
        rows = []
        pos = 0
        while pos < len(masks):
            mask = masks[pos]
            pos += 1
            row = []
            for j in range(a.letter_count):
                nxt = step(mask, j)
                if nxt not in index:
                    index[nxt] = len(masks)
                    masks.append(nxt)
                row.append(index[nxt])
            rows.append(tuple(row))
        delta = tuple(rows)
    finals = frozenset(
        q for q, mask in enumerate(masks) if mask == 0 or mask & fmask
    )
    return delta, tuple(masks), finals, 0


def accessible_order_reference(a: Dfa) -> tuple[int, ...]:
    """States reachable from the initial one, in queue-driven breadth-first order."""
    rows = a.delta.tolist()
    seen = {a.initial}
    order = [a.initial]
    for q in order:
        for t in rows[q]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    return tuple(order)


def accessible_reference(a: Dfa) -> Dfa:
    """accessible_part's result, built from accessible_order_reference one row at a time."""
    order = accessible_order_reference(a)
    new_id = {q: i for i, q in enumerate(order)}
    rows = a.delta.tolist()
    delta = tuple(tuple(new_id[t] for t in rows[q]) for q in order)
    finals = [new_id[q] for q in a.finals.tolist() if q in new_id]
    return Dfa(a.letter_count, len(order), 0, finals, delta)


def signature_refinement(a: Dfa) -> tuple[int, ...]:
    """Language classes of all states, by refining (colour, successor colours).

    Pure-Python signature refinement from the finality split to a fixpoint;
    classes are numbered by first occurrence in state order.
    """
    rows = a.delta.tolist()
    finals = set(a.finals.tolist())
    color = [int(q in finals) for q in range(a.state_count)]
    count = len(set(color))
    while True:
        ids: dict[tuple[int, ...], int] = {}
        refined = [
            ids.setdefault((color[q], *(color[t] for t in rows[q])), len(ids))
            for q in range(a.state_count)
        ]
        if len(ids) == count:
            return tuple(refined)
        color, count = refined, len(ids)


def _rows(mask: int, n1: int, n2: int) -> list[int]:
    width = (1 << n2) - 1
    return [mask >> (x * n2) & width for x in range(n1)]


def rows_equal_or_disjoint(mask: int, n1: int, n2: int) -> bool:
    """Are the rows of a row-major n1 x n2 mask pairwise equal or disjoint as column sets?

    This is right-triangle freedom; criterion 5 checks the equivalence with
    has_right_triangle on every shape of at most 12 cells.
    """
    rows = _rows(mask, n1, n2)
    return all(r == s or not r & s for i, r in enumerate(rows) for s in rows[i + 1:])


def has_right_triangle(mask: int, n1: int, n2: int) -> bool:
    """Does some axis-aligned rectangle meet the mask in exactly three corners?"""

    def cell(x: int, y: int) -> int:
        return mask >> (x * n2 + y) & 1

    return any(
        cell(x1, y1) + cell(x1, y2) + cell(x2, y1) + cell(x2, y2) == 3
        for x1, x2 in itertools.combinations(range(n1), 2)
        for y1, y2 in itertools.combinations(range(n2), 2)
    )


def saturate_mask(mask: int, n1: int, n2: int) -> int:
    """Least right-triangle-free superset of a row-major mask.

    Completing a rectangle that misses one corner amounts to unioning two
    intersecting rows, so rows are unioned pairwise until no two differ and
    intersect.
    """
    rows = _rows(mask, n1, n2)
    changed = True
    while changed:
        changed = False
        for i, j in itertools.combinations(range(n1), 2):
            if rows[i] & rows[j] and rows[i] != rows[j]:
                rows[i] = rows[j] = rows[i] | rows[j]
                changed = True
    return sum(r << (x * n2) for x, r in enumerate(rows))


def saturate_masks_pair_by_pair(masks: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """The saturation of each row-major n1 x n2 mask, one pair of rows at a time.

    The kernel as it was before it took all pairs of rows at one offset at
    once, kept verbatim as a second oracle for saturate_masks.

    Saturation joins two rows whenever they share a column and fills each
    component, rows R by columns C, to the full rectangle R x C: the least
    right-triangle-free superset of the mask. Each row x holds a column set
    c_x, at first its own columns; in each round, every pair of sets that
    meet is replaced by their union. After k rounds c_x holds every row
    within distance 2**k - 1 of x in the graph of rows that share a column,
    and never a row outside x's component, so (n1 - 1).bit_length() rounds
    leave c_x = C. Masks go a block at a time, with rows in the narrowest
    unsigned type for n2 bits; the result is int32 up to 31 bits, else int64.
    """
    masks = np.asarray(masks)
    dtype = np.int32 if n1 * n2 <= 31 else np.int64
    width = (1 << n2) - 1
    row_type = np.min_scalar_type(width)
    out = np.zeros(len(masks), dtype=dtype)
    step = block_rows(n1)
    for lo in range(0, len(masks), step):
        block = masks[lo:lo + step].astype(dtype)
        cover = np.empty((n1, len(block)), dtype=row_type)
        for x in range(n1):
            np.bitwise_and(block >> (x * n2), width, out=cover[x], casting="unsafe")
        union = np.empty(len(block), dtype=row_type)
        meet = np.empty(len(block), dtype=bool)
        for _ in range((n1 - 1).bit_length()):
            for x, y in itertools.combinations(range(n1), 2):
                np.bitwise_and(cover[x], cover[y], out=union)
                np.not_equal(union, 0, out=meet)
                # where the two sets meet, both become their union
                np.bitwise_or(cover[x], cover[y], out=union)
                union *= meet
                cover[x] |= union
                cover[y] |= union
        sat = out[lo:lo + len(block)]
        for x in range(n1):
            # block, no longer needed, holds row x's saturated columns
            block[:] = cover[x]
            block <<= x * n2
            sat |= block
    return out


def count_rtf_exhaustive(x: int, y: int, pinned: bool) -> int:
    """Right-triangle-free tableaux on an x by y grid, by trying all 2^(x*y) masks.

    The reference for the library's closed-form counts; pinned counts only
    tableaux holding the corner cell (0, 0).
    """
    return sum(
        1
        for mask in range(1 << (x * y))
        if (mask & 1 or not pinned) and rows_equal_or_disjoint(mask, x, y)
    )


def count_constrained_exhaustive(z) -> int:
    """Right-triangle-free tableaux where touching zone z forces the corner, by all masks.

    The reference for the library's closed-form count_constrained; tries all
    2^(n1*n2) masks of the zone's grid.
    """
    return sum(
        1
        for mask in range(1 << (z.n1 * z.n2))
        if (mask & 1 or not mask & z.zone) and rows_equal_or_disjoint(mask, z.n1, z.n2)
    )


def monster_reference(spec: MonsterSpec) -> tuple[Dfa, ...]:
    """monster()'s automata, built letter by letter from tuples of transformations."""
    letters = list(itertools.product(*(enumerate_all(n) for n in spec.sizes)))
    return tuple(
        Dfa(
            len(letters),
            n,
            0,
            spec.finals[coord],
            tuple(tuple(combo[coord](q) for combo in letters) for q in range(n)),
        )
        for coord, n in enumerate(spec.sizes)
    )


def final_sets(n: int) -> list[tuple[int, ...]]:
    """Every final set of an n-state automaton, ordered by bitmask value."""
    return [tuple(q for q in range(n) if mask >> q & 1) for mask in range(1 << n)]


def full_table_size(build_pair: Callable[[], tuple[Dfa, Dfa]], cap_states: int) -> int | None:
    """Minimal star-of-xor size of build_pair() with Nerode over the whole subset table.

    The independent route for measure_stx, which minimizes through the
    saturation quotient; None when a cap fires.
    """
    try:
        return minimize(stx(*build_pair(), cap_states=cap_states)).state_count
    except LimitExceeded:
        return None


def quotient_by_keys(a: Dfa, keys: np.ndarray) -> Dfa | None:
    """The quotient of a that merges the states with equal keys, if it is sound.

    keys[q] is an integer label of state q; the classes are numbered by one
    unstable argsort (unique_first). The partition into equal keys is
    checked exactly, as nerode_partition checks each round (_is_stable):
    every class is all final or all nonfinal, and every state has the
    successor classes of its class's representative. A partition that
    passes is a congruence that respects finality, so the quotient accepts
    L(a) and minimize(quotient) equals minimize(a), table for table. One
    that fails gives None. On a full subset table keyed by saturated masks,
    it is the whole-table check of the saturation lemma that
    saturation_premises_hold makes locally.
    """
    _, reps, class_of = unique_first(np.asarray(keys))
    final = np.zeros(a.state_count, dtype=bool)
    final[a.finals] = True
    if not _is_stable(a, final, class_of, reps):
        return None
    return _class_quotient(a, class_of, reps)


def premises_by_image_tables(product: Dfa, n1: int, n2: int) -> bool:
    """saturation_premises_hold as it was first written, through the star's image tables.

    The oracle for the grid check, and for premises_by_letter_images, which
    ORs the three cells' steps read from delta: here each triangle's and
    corner's step under every letter comes at once from the chunked
    per-letter subset-image tables that star_modifier searches with
    (modifiers._star_images), and every image goes through saturate_masks.
    """
    n = n1 * n2
    dtype = modifiers._mask_dtype(n)
    images, fmask = modifiers._star_images(product, dtype)
    rows, cols = np.arange(n1), np.arange(n2)
    x, x2, y, y2 = (g.reshape(-1) for g in np.meshgrid(rows, rows, cols, cols, indexing="ij"))
    keep = (x != x2) & (y != y2)
    x, x2, y, y2 = x[keep], x2[keep], y[keep], y2[keep]
    bit = np.left_shift(dtype(1), np.arange(n, dtype=dtype))
    triangles = bit[x * n2 + y] | bit[x * n2 + y2] | bit[x2 * n2 + y]
    corners = bit[x2 * n2 + y2]
    if (((corners & fmask) != 0) & ((triangles & fmask) == 0)).any():
        return False
    sat = saturate_masks(images(triangles).reshape(-1), n1, n2)
    return not (images(corners).reshape(-1) & ~sat).any()


def premises_by_letter_images(
    product: Dfa,
    n1: int,
    n2: int,
    normalize: Callable[[np.ndarray], np.ndarray],
) -> bool:
    """saturation_premises_hold as it was before it read (P1) off the grid.

    The oracle for the grid check: (P2) on the finals, then (P1) letter by
    letter, a block of letters at a time (block_rows). Each triangle's step
    is the union of its three cells' steps, read from product's delta with
    the seed rule folded into the cell's bit, and goes through normalize,
    which must saturate a 1-D array of the grid's masks (saturate_masks or
    a lookup in saturation_table). It works on any automaton on the grid,
    product or not.
    """
    n = n1 * n2
    if product.state_count != n:
        raise ValueError(f"a {n1} x {n2} grid has {n} cells, not {product.state_count}")
    dtype = modifiers._mask_dtype(n)
    cell_bits = np.left_shift(dtype(1), np.arange(n, dtype=dtype))
    cell_bits[product.finals] |= dtype(1 << product.initial)
    rows, cols = np.arange(n1), np.arange(n2)
    x, x2, y, y2 = (g.reshape(-1) for g in np.meshgrid(rows, rows, cols, cols, indexing="ij"))
    keep = (x != x2) & (y != y2)
    x, x2, y, y2 = x[keep], x2[keep], y[keep], y2[keep]
    triangles = (x * n2 + y, x * n2 + y2, x2 * n2 + y)
    corners = x2 * n2 + y2
    # (P2), then (P1) a block of letters at a time
    final = np.zeros(n, dtype=bool)
    final[product.finals] = True
    if (final[corners] & ~(final[triangles[0]] | final[triangles[1]] | final[triangles[2]])).any():
        return False
    step = block_rows(len(corners))
    for lo in range(0, product.letter_count, step):
        # steps[q, j] is step({q}) on letter lo + j
        steps = np.take(cell_bits, product.delta[:, lo:lo + step])
        images = np.take(steps, triangles[0], axis=0)
        images |= np.take(steps, triangles[1], axis=0)
        images |= np.take(steps, triangles[2], axis=0)
        sat = normalize(images.reshape(-1))
        if (np.take(steps, corners, axis=0).reshape(-1) & ~sat).any():
            return False
    return True


def acts_coordinatewise(a: Dfa, n1: int, n2: int) -> bool:
    """Does every letter map each cell (x, y) of the n1 x n2 grid to (f(x), g(y))?

    f is read off column 0 and g off row 0, then every cell is compared.
    """
    for j in range(a.letter_count):
        f = [a.delta.item(x * n2, j) // n2 for x in range(n1)]
        g = [a.delta.item(y, j) % n2 for y in range(n2)]
        if any(
            a.delta.item(x * n2 + y, j) != f[x] * n2 + g[y]
            for x in range(n1)
            for y in range(n2)
        ):
            return False
    return True


def sweep_rows_exhaustive(
    n1: int,
    n2: int,
    cap_states: int = DEFAULT_STATE_CAP,
    cap_letters: int = DEFAULT_LETTER_CAP,
) -> list[dict]:
    """The finals sweep's rows with one construction per final-set pair.

    The reference for experiments.sweep_reports, which builds one pair per
    symmetry orbit; pairs run in the same order. Each size comes from
    full_table_size, not from the saturation quotient that measure_stx uses.
    """
    rows = []
    for f1 in final_sets(n1):
        for f2 in final_sets(n2):
            measured = full_table_size(
                lambda: monster2(MonsterSpec.pair(n1, n2, f1, f2), cap_letters=cap_letters),
                cap_states,
            )
            predicted = count_constrained(final_zone(n1, n2, f1, f2))
            rows.append({
                "n1": n1,
                "n2": n2,
                "F1": f1,
                "F2": f2,
                "measured": measured,
                "predicted": predicted,
                "verdict": verdict(measured, predicted, at_most=True),
            })
    return rows


def star_membership(a: Dfa, word: tuple[int, ...]) -> bool:
    """Does the word split into factors of L(a)? Prefix dynamic programming."""
    k = len(word)
    ok = [False] * (k + 1)
    ok[0] = True
    for j in range(1, k + 1):
        ok[j] = any(ok[i] and accepts(a, word[i:j]) for i in range(j))
    return ok[k]


def all_words(letter_count: int, up_to: int):
    """Every word over range(letter_count) of length at most up_to."""
    stack: list[tuple[int, ...]] = [()]
    while stack:
        w = stack.pop()
        yield w
        if len(w) < up_to:
            for j in range(letter_count):
                stack.append(w + (j,))
