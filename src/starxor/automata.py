"""Complete deterministic finite automata over integer letters."""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Dfa:
    """Complete DFA with states range(state_count) and letters range(letter_count).

    delta is the dense row-major table: delta[q][j] is the successor of state q
    on letter j. letter_labels, when present, name the letters for rendering
    and carry no semantics.
    """

    letter_count: int
    state_count: int
    initial: int
    finals: frozenset[int]
    delta: tuple[tuple[int, ...], ...]
    letter_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        if self.letter_labels is not None:
            object.__setattr__(self, "letter_labels", tuple(self.letter_labels))
        if self.state_count < 1:
            raise ValueError("a complete DFA needs at least one state")
        if self.letter_count < 0:
            raise ValueError("letter_count must be nonnegative")
        if not 0 <= self.initial < self.state_count:
            raise ValueError(f"initial state {self.initial} out of range")
        if any(not 0 <= q < self.state_count for q in self.finals):
            raise ValueError("final state out of range")
        if len(self.delta) != self.state_count:
            raise ValueError(f"delta has {len(self.delta)} rows, expected {self.state_count}")
        for q, row in enumerate(self.delta):
            if len(row) != self.letter_count:
                raise ValueError(f"delta row {q} has {len(row)} entries, expected {self.letter_count}")
            if any(not 0 <= t < self.state_count for t in row):
                raise ValueError(f"delta row {q} targets a state out of range")
        if self.letter_labels is not None and len(self.letter_labels) != self.letter_count:
            raise ValueError("letter_labels length must match letter_count")


@dataclass(frozen=True)
class NerodePartition:
    """State partition by language equivalence: class_of[q] is q's class index.

    Classes are numbered by first occurrence in state order, so the initial
    state of an accessible DFA always lands in class 0's block ordering.
    """

    class_of: tuple[int, ...]
    class_count: int

    def blocks(self) -> tuple[frozenset[int], ...]:
        out: list[set[int]] = [set() for _ in range(self.class_count)]
        for q, c in enumerate(self.class_of):
            out[c].add(q)
        return tuple(frozenset(b) for b in out)


def accessible_part(a: Dfa) -> tuple[Dfa, tuple[int, ...]]:
    """Restriction to states reachable from the initial one, plus the remap.

    Returns (b, kept) where kept[new] is the old index of b's state new.
    States come out in breadth-first discovery order, letters in index order.
    """
    seen = {a.initial: 0}
    order = [a.initial]
    i = 0
    while i < len(order):
        q = order[i]
        i += 1
        for t in a.delta[q]:
            if t not in seen:
                seen[t] = len(order)
                order.append(t)
    delta = tuple(
        tuple(seen[t] for t in a.delta[q])
        for q in order
    )
    finals = frozenset(seen[q] for q in a.finals if q in seen)
    b = Dfa(a.letter_count, len(order), 0, finals, delta, a.letter_labels)
    return b, tuple(order)


def _renumber_first_occurrence(raw: Iterable[int]) -> tuple[tuple[int, ...], int]:
    mapping: dict[int, int] = {}
    out = []
    for c in raw:
        if c not in mapping:
            mapping[c] = len(mapping)
        out.append(mapping[c])
    return tuple(out), len(mapping)


def nerode_partition(a: Dfa) -> NerodePartition:
    """Language-equivalence classes of the states, by iterated signature refinement.

    Meaningful as the Nerode partition when a is accessible; minimize() takes
    care of that. Refinement rounds run on integer matrices via numpy.
    """
    n, width = a.state_count, a.letter_count
    delta = np.asarray(a.delta, dtype=np.int64).reshape(n, width)
    color = np.zeros(n, dtype=np.int64)
    for q in a.finals:
        color[q] = 1
    count = 2 if 0 < len(a.finals) < n else 1
    while True:
        sig = np.empty((n, width + 1), dtype=np.int64)
        sig[:, 0] = color
        sig[:, 1:] = color[delta]
        _, inverse = np.unique(sig, axis=0, return_inverse=True)
        new_count = int(inverse.max()) + 1
        if new_count == count:
            class_of, k = _renumber_first_occurrence(inverse.tolist())
            return NerodePartition(class_of, k)
        color = inverse
        count = new_count


def minimize(a: Dfa) -> Dfa:
    """The minimal complete DFA for L(a): accessible part, then class quotient."""
    acc, _ = accessible_part(a)
    part = nerode_partition(acc)
    if part.class_count == acc.state_count:
        return acc
    reps: list[int] = [-1] * part.class_count
    for q in range(acc.state_count):
        c = part.class_of[q]
        if reps[c] < 0:
            reps[c] = q
    delta = tuple(
        tuple(part.class_of[acc.delta[reps[c]][j]] for j in range(acc.letter_count))
        for c in range(part.class_count)
    )
    finals = frozenset(part.class_of[q] for q in acc.finals)
    return Dfa(
        acc.letter_count,
        part.class_count,
        part.class_of[acc.initial],
        finals,
        delta,
        acc.letter_labels,
    )


def is_equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality over a shared alphabet, by product exploration."""
    if a.letter_count != b.letter_count:
        raise ValueError("language comparison needs a common alphabet")
    start = (a.initial, b.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        p, q = queue.popleft()
        if (p in a.finals) != (q in b.finals):
            return False
        for j in range(a.letter_count):
            nxt = (a.delta[p][j], b.delta[q][j])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def run(a: Dfa, word: Iterable[int]) -> int:
    """State reached from the initial one on the given letter sequence."""
    q = a.initial
    for j in word:
        if not 0 <= j < a.letter_count:
            raise ValueError(f"letter {j} out of range")
        q = a.delta[q][j]
    return q


def accepts(a: Dfa, word: Iterable[int]) -> bool:
    return run(a, word) in a.finals


def preimage_by_renaming(
    a: Dfa,
    phi: Sequence[int],
    letter_labels: Sequence[str] | None = None,
) -> Dfa:
    """DFA for the preimage of L(a) under a letter renaming.

    phi[j] is the a-letter that new letter j renames to. States, initial and
    finals are untouched; only the columns of delta are permuted or repeated,
    so the state count never grows.
    """
    phi = tuple(phi)
    if any(not 0 <= p < a.letter_count for p in phi):
        raise ValueError("renaming targets a letter out of range")
    delta = tuple(tuple(row[p] for p in phi) for row in a.delta)
    labels = tuple(letter_labels) if letter_labels is not None else None
    return Dfa(len(phi), a.state_count, a.initial, a.finals, delta, labels)


def _letter_name(a: Dfa, j: int) -> str:
    if a.letter_labels is not None:
        return a.letter_labels[j]
    return str(j)


def export_dot(a: Dfa) -> str:
    """Graphviz rendering; parallel edges are merged with comma-joined labels."""
    lines = ["digraph dfa {", "  rankdir=LR;", "  __init [shape=point];"]
    for q in range(a.state_count):
        shape = "doublecircle" if q in a.finals else "circle"
        lines.append(f'  q{q} [shape={shape}, label="{q}"];')
    lines.append(f"  __init -> q{a.initial};")
    for q in range(a.state_count):
        targets: dict[int, list[int]] = {}
        for j in range(a.letter_count):
            targets.setdefault(a.delta[q][j], []).append(j)
        for t in sorted(targets):
            label = ",".join(_letter_name(a, j) for j in targets[t])
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  q{q} -> q{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(a: Dfa) -> str:
    """Stable JSON form; letter_labels is omitted when absent."""
    obj: dict = {
        "letter_count": a.letter_count,
        "state_count": a.state_count,
        "initial": a.initial,
        "finals": sorted(a.finals),
        "delta": [list(row) for row in a.delta],
    }
    if a.letter_labels is not None:
        obj["letter_labels"] = list(a.letter_labels)
    return json.dumps(obj, indent=2) + "\n"


def import_json(text: str) -> Dfa:
    """Inverse of export_json. Malformed JSON raises with position information."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for field in ("letter_count", "state_count", "initial", "finals", "delta"):
        if field not in obj:
            raise ValueError(f"missing field {field!r}")
    labels = obj.get("letter_labels")
    return Dfa(
        obj["letter_count"],
        obj["state_count"],
        obj["initial"],
        frozenset(obj["finals"]),
        tuple(tuple(row) for row in obj["delta"]),
        tuple(labels) if labels is not None else None,
    )
