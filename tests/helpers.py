"""Shared oracles for the tests, independent of the package's own algorithms."""

from __future__ import annotations

import random

from starxor import Dfa, accepts


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

    A different algorithm family from signature refinement: mark pairs with
    differing finality, propagate backwards to a fixpoint, count classes of
    reachable states.
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
    states = sorted(reachable)
    finals = set(a.finals.tolist())
    marked: set[tuple[int, int]] = set()
    for i, p in enumerate(states):
        for q in states[i + 1:]:
            if (p in finals) != (q in finals):
                marked.add((p, q))
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(states):
            for q in states[i + 1:]:
                if (p, q) in marked:
                    continue
                for j in range(a.letter_count):
                    x, y = rows[p][j], rows[q][j]
                    if x > y:
                        x, y = y, x
                    if x != y and (x, y) in marked:
                        marked.add((p, q))
                        changed = True
                        break
    class_of: dict[int, int] = {}
    count = 0
    for i, p in enumerate(states):
        for q in states[:i]:
            if (q, p) not in marked:
                class_of[p] = class_of[q]
                break
        else:
            class_of[p] = count
            count += 1
    return count


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
    return Dfa(a.letter_count, len(order), 0, finals, delta, a.letter_labels)


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


def count_rtf_exhaustive(x: int, y: int, pinned: bool) -> int:
    """Right-triangle-free tableaux on an x by y grid, by trying all 2^(x*y) masks.

    The reference for the library's closed-form counts. A tableau is
    right-triangle free when its nonempty rows are pairwise equal or disjoint;
    pinned counts only tableaux holding the corner cell (0, 0).
    """
    width = (1 << y) - 1
    count = 0
    for mask in range(1 << (x * y)):
        if pinned and not mask & 1:
            continue
        rows = [mask >> (i * y) & width for i in range(x)]
        if all(
            not r or not s or r == s or not r & s
            for i, r in enumerate(rows)
            for s in rows[i + 1:]
        ):
            count += 1
    return count


def count_constrained_exhaustive(z) -> int:
    """Right-triangle-free tableaux where touching zone z forces the corner, by all masks.

    The reference for the library's closed-form count_constrained; tries all
    2^(n1*n2) masks of the zone's grid.
    """
    width = (1 << z.n2) - 1
    count = 0
    for mask in range(1 << (z.n1 * z.n2)):
        if mask & z.zone and not mask & 1:
            continue
        rows = [mask >> (i * z.n2) & width for i in range(z.n1)]
        if all(
            not r or not s or r == s or not r & s
            for i, r in enumerate(rows)
            for s in rows[i + 1:]
        ):
            count += 1
    return count


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
