"""Complete deterministic finite automata over integer letters."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True, eq=False)
class Dfa:
    """Complete DFA with states range(state_count) and letters range(letter_count).

    delta is the dense row-major table, a read-only (state_count, letter_count)
    int32 array: delta[q, j] is the successor of state q on letter j. Any
    integer array-like of that shape is accepted; an int32 ndarray is used
    without a copy, so do not write to it afterwards. finals, given as any
    iterable of ints, is held as a read-only sorted int32 array of distinct
    states. A letter is just its index: names for printing are passed to
    export_dot and export_json. Equality is by value, finals and table
    included.
    """

    letter_count: int
    state_count: int
    initial: int
    finals: np.ndarray
    delta: np.ndarray

    def __post_init__(self) -> None:
        for name in ("letter_count", "state_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} {value!r} is not an integer")
            object.__setattr__(self, name, int(value))
        if self.state_count < 1:
            raise ValueError("a complete DFA needs at least one state")
        if self.letter_count < 0:
            raise ValueError("letter_count must be nonnegative")
        if isinstance(self.initial, bool) or not isinstance(self.initial, (int, np.integer)):
            raise ValueError(f"initial state {self.initial!r} is not an integer")
        object.__setattr__(self, "initial", int(self.initial))
        if not 0 <= self.initial < self.state_count:
            raise ValueError(f"initial state {self.initial} out of range")
        try:
            finals = np.asarray(self.finals if isinstance(self.finals, np.ndarray) else list(self.finals))
        except TypeError:
            raise ValueError("finals must be an iterable of states") from None
        # np.asarray([]) is float64, so the dtype counts only when nonempty; bool is kind "b"
        if finals.ndim != 1 or (finals.size and finals.dtype.kind not in "iu"):
            raise ValueError("final states must be integers")
        if finals.size and (finals.min() < 0 or finals.max() >= self.state_count):
            raise ValueError("final state out of range")
        # one int32 copy, sorted in place; np.unique is far slower on large arrays
        finals = finals.astype(np.int32)
        finals.sort()
        distinct = np.ones(finals.size, dtype=bool)
        np.not_equal(finals[1:], finals[:-1], out=distinct[1:])
        finals = finals[distinct]
        finals.flags.writeable = False
        object.__setattr__(self, "finals", finals)
        raw = np.asarray(self.delta)
        shape = (self.state_count, self.letter_count)
        if raw.shape != shape:
            raise ValueError(f"delta has shape {raw.shape}, expected {shape}")
        if raw.size:
            if raw.dtype.kind not in "iu":
                raise ValueError("delta entries must be integers")
            if raw.dtype == np.int32:
                # one reduction: a negative entry reads as at least 2^31 as uint32
                out_of_range = raw.view(np.uint32).max() >= self.state_count
            else:
                out_of_range = raw.min() < 0 or raw.max() >= self.state_count
            if out_of_range:
                raise ValueError("delta targets a state out of range")
        delta = raw.astype(np.int32, copy=False).view()
        delta.flags.writeable = False
        object.__setattr__(self, "delta", delta)

    def _key(self) -> tuple:
        return (self.letter_count, self.state_count, self.initial)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        same = self._key() == other._key() and np.array_equal(self.finals, other.finals)
        return same and np.array_equal(self.delta, other.delta)

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class NerodePartition:
    """State partition by language equivalence: class_of[q] is q's class index.

    class_of is a read-only int32 array. Classes are numbered by first
    occurrence in state order, so state 0 is always in class 0, and reps,
    a read-only intp array, holds each class's least state in class order.
    rounds is the number of refinement rounds, the last one included: hashed
    rounds, and stalls that a split repaired (see nerode_partition). The
    class count rises on every round but the last, so rounds is at most
    state_count.
    """

    class_of: np.ndarray
    reps: np.ndarray
    class_count: int
    rounds: int


# Frontier rows gathered per step of a breadth-first pass, as a bound on the
# entries (rows x letters) a step allocates.
BLOCK_ENTRIES = 2**20


def block_rows(letter_count: int) -> int:
    """Rows per frontier block: at least one, at most BLOCK_ENTRIES entries' worth."""
    return max(1, BLOCK_ENTRIES // max(1, letter_count))


def number_first(ids: np.ndarray, found: np.ndarray, count: int) -> np.ndarray:
    """Number the distinct values of found count, count + 1, ... by first occurrence.

    ids is an int32 map from values to ids that holds, at every value in
    found, a mark of "unseen" above the codes below: -1, or 0 in a map that
    holds id + 1 (star_modifier's dense map, whose callers pass count + 1).
    Writes the new ids into it and returns the distinct values in that
    order, without a sort.
    """
    # each value's id takes the least of the codes (all below -1) of its
    # positions, which marks its first occurrence; fresh is then already in
    # first-occurrence order
    code = np.arange(-1 - len(found), -1, dtype=np.int32)
    np.minimum.at(ids, found, code)
    fresh = found[ids[found] == code]
    ids[fresh] = np.arange(count, count + len(fresh), dtype=np.int32)
    return fresh


def accessible_part(a: Dfa) -> Dfa:
    """Restriction to states reachable from the initial one, in a fresh table.

    States come out in breadth-first discovery order, letters in index order:
    each frontier block's unseen successors are numbered by first occurrence
    in (state, letter) order. minimize calls it on the small class quotient.
    """
    new_id = np.full(a.state_count, -1, dtype=np.int32)
    new_id[a.initial] = 0
    order = np.empty(a.state_count, dtype=np.int32)
    order[0] = a.initial
    count, pos = 1, 0
    step = block_rows(a.letter_count)
    while pos < count:
        targets = a.delta[order[pos:min(count, pos + step)]].reshape(-1)
        fresh = number_first(new_id, targets[new_id[targets] < 0], count)
        order[count:count + len(fresh)] = fresh
        pos = min(count, pos + step)
        count += len(fresh)
    order = order[:count]
    finals = new_id[a.finals]
    return Dfa(a.letter_count, count, 0, finals[finals >= 0], new_id[a.delta[order]])


def unique_first(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique(values, return_index=True, return_inverse=True) for a 1-D array.

    The same sorted distinct values, first-occurrence indices and inverse,
    from one unstable argsort instead of np.unique's stable one: the first
    occurrence is the least index in each run of equal sorted values. On
    star_modifier's million-entry blocks this takes about half the time. The
    inverse is int32, not np.unique's intp: star_modifier's blocks and the
    state counts the caps allow are far below 2^31 values.
    """
    perm = np.argsort(values)
    ranked = values[perm]
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    distinct = ranked[starts]
    del ranked
    rank = np.cumsum(starts, dtype=np.int32)
    rank -= 1
    inverse = np.empty(len(values), dtype=np.int32)
    inverse[perm] = rank
    starts = np.flatnonzero(starts)
    first = np.minimum.reduceat(perm, starts) if len(starts) else starts
    return distinct, first, inverse


# splitmix64 (Steele, Lea and Flood): the odd increment of its stream and the
# two odd multipliers of its finaliser
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser, in place on a uint64 array: a bijection of words."""
    h ^= h >> 30
    h *= _MIX1
    h ^= h >> 27
    h *= _MIX2
    h ^= h >> 31
    return h


def _hash_weights(count: int) -> np.ndarray:
    """The first count outputs of the splitmix64 stream seeded with 0."""
    return _mix(np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN))


def _hashed_round(a: Dfa, color: np.ndarray, count: int) -> np.ndarray | None:
    """One round of Moore refinement with hashed signatures, in place on color.

    color holds count colours 0..count-1. When the round's keys give more
    than count colours, color comes back holding the new ones, numbered in
    key order, and the least state of each new colour is returned;
    otherwise color is left as it was and the result is None (a stall).
    Each state's signature (own colour, then successor colours) is written
    as one row of the narrowest unsigned dtype that holds the colours,
    zero-padded to whole uint64 words, one row block at a time. With x a
    row's words and w, v the fixed weights, the row's hash is
    x @ w + (x >> 32) @ v mod 2^64, then splitmix64's finaliser: rows that
    differ only in the top bytes of two words would collide for half of all
    weights without the high halves. State q's key is the hash's high bits
    above q's index, so one sort of the keys puts equal hashes in runs that
    each start at their least state.
    """
    n, width = a.state_count, a.letter_count
    # uint8, uint16 or uint32: the narrowest that holds colour count - 1
    dtype = np.min_scalar_type(count - 1)
    words = -(-(width + 1) * dtype.itemsize // 8)
    weights = _hash_weights(2 * words)
    shift = (n - 1).bit_length()
    high_bits = np.uint64(2**64 - (1 << shift))
    # np.take makes an intp copy of each int32 index block, so blocks are
    # sized to keep that copy within BLOCK_ENTRIES bytes
    step = block_rows(8 * width)
    # zeros: the pad bytes of a row are never written
    x_buf = np.zeros((min(step, n), words), dtype=np.uint64)
    # x and its high halves apart: a shift into every other column of one
    # block runs about ten times slower
    top_buf = np.empty_like(x_buf)
    narrow = color.astype(dtype)
    keys = np.empty(n, dtype=np.uint64)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        x, top = x_buf[:hi - lo], top_buf[:hi - lo]
        rows = x.view(dtype)
        rows[:, 0] = narrow[lo:hi]
        rows[:, 1:width + 1] = np.take(narrow, a.delta[lo:hi])
        np.right_shift(x, 32, out=top)
        h = x @ weights[:words]
        h += top @ weights[words:]
        _mix(h)
        h &= high_bits
        h |= np.arange(lo, hi, dtype=np.uint64)
        keys[lo:hi] = h
    keys.sort()
    breaks = (keys[1:] ^ keys[:-1]) >> shift != 0
    classes = int(np.count_nonzero(breaks)) + 1
    if classes <= count:
        return None
    keys &= ~high_bits
    order = keys.view(np.int64)
    color[order[0]] = 0
    color[order[1:]] = np.cumsum(breaks, dtype=np.int32)
    reps = np.empty(classes, dtype=np.intp)
    reps[0] = order[0]
    reps[1:] = order[1:][breaks]
    return reps


# Rows in the first block of a stability check that stops at its first
# failing block (the witness (5,4) quotient's first unstable states are 7,
# 20, 182 and 1,001 of 3,369); each next block doubles.
FIRST_CHECK_ROWS = 1024


def _is_stable(
    a: Dfa,
    final: np.ndarray,
    class_of: np.ndarray,
    reps: np.ndarray,
    unstable: list[np.ndarray] | None = None,
) -> bool:
    """Is every class all final or all nonfinal, and does every state q have
    the successor classes of its class's representative reps[class_of[q]]?

    One gather pass, a row block at a time, in the narrowest dtype that
    holds the classes: a block's successor classes against those of its
    states' representatives, whose rows are gathered with the block, so no
    table of them is held. Without unstable, it stops at the first block
    that differs, and its blocks start at FIRST_CHECK_ROWS rows and double
    up to the full block; with it, it visits every block and appends to
    unstable, block by block and in state order, the states whose finality
    or successor classes differ from their representative's.
    """
    narrow = class_of.astype(np.min_scalar_type(len(reps) - 1))
    # half a refinement block: beside a block's colours, the gather of its
    # representatives' colours holds their rows of delta and the intp copy
    # np.take makes of them
    step = block_rows(16 * a.letter_count)
    # a check that can stop early starts small and doubles, so that one that
    # fails early gathers little past its first unstable state
    rows = step if unstable is not None else min(step, FIRST_CHECK_ROWS)
    rep_final = final[reps]
    stable = True
    lo = 0
    while lo < a.state_count:
        hi = lo + rows
        classes = class_of[lo:hi]
        wrong_final = rep_final[classes] != final[lo:hi]
        got = np.take(narrow, a.delta[lo:hi])
        want = np.take(narrow, a.delta[reps[classes]])
        if wrong_final.any() or not np.array_equal(got, want):
            if unstable is None:
                return False
            stable = False
            unstable.append(lo + np.flatnonzero(wrong_final | (got != want).any(axis=1)))
        lo, rows = hi, min(2 * rows, step)
    return stable


def nerode_partition(a: Dfa) -> NerodePartition:
    """Language-equivalence classes of the states, by hashed Moore refinement.

    Two states share a class exactly when they accept the same words.
    Every state is classed, reachable or not: the argument below never asks
    which states are reachable. From the finality split, each round
    (_hashed_round) gives two states one colour when their signatures (own
    colour, successor colours) hash to one key, and the refinement stops at
    the first partition that passes an exact check (_is_stable).

    Why the result is exact. Call a partition sound when no class boundary
    separates two language-equivalent states; the finality split is sound.
    Equal signatures always get equal keys, so a hashed round can only
    merge states that Moore's round would separate, and its partition is
    sound when the one before it was. The check shows that the last
    partition is no coarser than the Nerode partition: every class is all
    final or all nonfinal, and every state's successor classes equal its
    class representative's. A partition that passes is a congruence that
    respects finality, so it refines the Nerode partition, and the two are
    equal.

    Collisions, and why it ends. Without a collision, a partition that
    fails the check splits in the next hashed round, so the count of
    colours rises. A round whose count does not rise is a stall: the
    colours stay as they were, and each class that fails the check splits
    instead, its states whose finality or successor classes differ from
    its representative's moving together into one new class. Each of them
    differs from every state left behind in finality or in the class of
    some successor, and classes never separate equivalent states, so the
    split keeps the partition sound. Either way the count rises every
    round but the last, and it cannot pass state_count, so the refinement
    ends within state_count rounds, whatever the weights.
    """
    n = a.state_count
    final = np.zeros(n, dtype=bool)
    final[a.finals] = True
    # the finality split, with state 0's side colour 0
    color = (final != final[0]).astype(np.int32)
    other = int(color.argmax())
    reps = np.array([0, other] if other else [0], dtype=np.intp)
    rounds = 0
    while True:
        rounds += 1
        hashed = _hashed_round(a, color, len(reps))
        if hashed is not None:
            reps = hashed
            if _is_stable(a, final, color, reps):
                break
            continue
        found = []
        if _is_stable(a, final, color, reps, found):
            break
        # a stall: one new class per class, of its states that differ
        # from its representative
        unstable = np.concatenate(found)
        _, first, inverse = unique_first(color[unstable])
        color[unstable] = len(reps) + inverse
        reps = np.concatenate([reps, unstable[first]])
    # renumber the classes by first occurrence in state order
    reps.sort()
    rank = np.empty(len(reps), dtype=np.int32)
    rank[color[reps]] = np.arange(len(reps), dtype=np.int32)
    class_of = rank[color]
    class_of.flags.writeable = False
    reps.flags.writeable = False
    return NerodePartition(class_of, reps, len(reps), rounds)


def minimize(a: Dfa) -> Dfa:
    """The minimal complete DFA for L(a): refine, quotient, then accessible part.

    The class quotient takes each class's row from its least state. It
    accepts L(a), and its classes are pairwise inequivalent, so its
    accessible part is the minimal DFA, numbered breadth first from the
    initial class. An inaccessible input is refined over its unreachable
    states too. No measurement calls it: measure_stx counts the classes of
    an stx table, whose states are all reachable, with nerode_partition.
    """
    part = nerode_partition(a)
    return accessible_part(_class_quotient(a, part.class_of, part.reps))


def _class_quotient(a: Dfa, class_of: np.ndarray, reps: np.ndarray) -> Dfa:
    """The DFA on the classes of a partition of a's states.

    class_of[q] is q's class and reps[c] a state of class c, whose row gives
    the class's row. It accepts L(a) when the partition is a congruence
    that respects finality.
    """
    return Dfa(
        a.letter_count,
        len(reps),
        class_of[a.initial],
        class_of[a.finals],
        class_of[a.delta[reps]],
    )


def is_equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality over a shared alphabet: one Nerode partition of both.

    The disjoint union holds a's states, then b's shifted by a.state_count.
    nerode_partition classes every state of it by the language it accepts,
    reachable or not, so a and b accept the same language exactly when
    their initial states share a class.
    """
    if a.letter_count != b.letter_count:
        raise ValueError("language comparison needs a common alphabet")
    shift = a.state_count
    union = Dfa(
        a.letter_count,
        shift + b.state_count,
        a.initial,
        np.concatenate([a.finals, b.finals + shift]),
        np.concatenate([a.delta, b.delta + shift]),
    )
    class_of = nerode_partition(union).class_of
    return bool(class_of[a.initial] == class_of[shift + b.initial])


def preimage_by_renaming(a: Dfa, phi: Sequence[int]) -> Dfa:
    """DFA for the preimage of L(a) under a letter renaming.

    phi[j] is the a-letter that new letter j renames to. States, initial and
    finals are untouched; only the columns of delta are permuted or repeated,
    so the state count never grows.
    """
    phi = tuple(phi)
    if any(isinstance(p, bool) or not isinstance(p, (int, np.integer)) for p in phi):
        raise ValueError("renaming letters must be integers")
    if any(not 0 <= p < a.letter_count for p in phi):
        raise ValueError("renaming targets a letter out of range")
    columns = np.asarray(phi, dtype=np.intp)
    return Dfa(len(phi), a.state_count, a.initial, a.finals, a.delta[:, columns])


def _check_labels(labels: Sequence[str], letter_count: int) -> tuple[str, ...]:
    """labels as a tuple of one name per letter; ValueError otherwise."""
    if isinstance(labels, str) or not isinstance(labels, Sequence) or not all(
        map(isinstance, labels, itertools.repeat(str))
    ):
        raise ValueError("letter_labels must be a sequence of strings")
    if len(labels) != letter_count:
        raise ValueError("letter_labels length must match letter_count")
    return tuple(labels)


def export_dot(a: Dfa, labels: Sequence[str] | None = None) -> str:
    """Graphviz rendering; parallel edges are merged with comma-joined labels.

    labels names the letters, one string each; without it a letter is named
    by its index.
    """
    if labels is None:
        labels = [str(j) for j in range(a.letter_count)]
    names = _check_labels(labels, a.letter_count)
    lines = ["digraph dfa {", "  rankdir=LR;", "  __init [shape=point];"]
    finals = set(a.finals.tolist())
    for q in range(a.state_count):
        shape = "doublecircle" if q in finals else "circle"
        lines.append(f'  q{q} [shape={shape}, label="{q}"];')
    lines.append(f"  __init -> q{a.initial};")
    for q, row in enumerate(a.delta.tolist()):
        targets: dict[int, list[int]] = {}
        for j, t in enumerate(row):
            targets.setdefault(t, []).append(j)
        for t in sorted(targets):
            label = ",".join(names[j] for j in targets[t])
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  q{q} -> q{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(a: Dfa, labels: Sequence[str] | None = None) -> str:
    """Stable JSON form; the letter names, if given, go in letter_labels."""
    obj: dict = {
        "letter_count": a.letter_count,
        "state_count": a.state_count,
        "initial": a.initial,
        "finals": a.finals.tolist(),
        "delta": a.delta.tolist(),
    }
    if labels is not None:
        obj["letter_labels"] = list(_check_labels(labels, a.letter_count))
    return json.dumps(obj, indent=2) + "\n"


def import_json(text: str) -> tuple[Dfa, tuple[str, ...] | None]:
    """Inverse of export_json: the DFA and its letter names, None when absent.

    Malformed JSON raises with position information.
    """
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for field in ("letter_count", "state_count", "initial", "finals", "delta"):
        if field not in obj:
            raise ValueError(f"missing field {field!r}")
    a = Dfa(obj["letter_count"], obj["state_count"], obj["initial"], obj["finals"], obj["delta"])
    labels = obj.get("letter_labels")
    return a, None if labels is None else _check_labels(labels, a.letter_count)
