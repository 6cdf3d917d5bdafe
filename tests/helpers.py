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
    reachable = {a.initial}
    frontier = [a.initial]
    while frontier:
        q = frontier.pop()
        for t in a.delta[q]:
            if t not in reachable:
                reachable.add(t)
                frontier.append(t)
    states = sorted(reachable)
    marked: set[tuple[int, int]] = set()
    for i, p in enumerate(states):
        for q in states[i + 1:]:
            if (p in a.finals) != (q in a.finals):
                marked.add((p, q))
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(states):
            for q in states[i + 1:]:
                if (p, q) in marked:
                    continue
                for j in range(a.letter_count):
                    x, y = a.delta[p][j], a.delta[q][j]
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

    def pair_final(p: tuple[int, int]) -> bool:
        return (p[0] in a.finals) != (p[1] in b.finals)

    def step(subset: frozenset, j: int) -> frozenset:
        sources = {q for q in subset if q != start}
        if start in subset:
            sources.add(seed)
        image = {(a.delta[x][j], b.delta[y][j]) for x, y in sources}
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
