"""Star and xor constructions, and the star of the xor product.

Each construction reads only the operands' state configurations and, letter by
letter, the transformations the letter induces. Nothing else about the operand
languages is consulted, which keeps every construction compatible with letter
renamings by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .automata import (
    Dfa,
    block_rows,
    is_equivalent,
    preimage_by_renaming,
)
from .transforms import LimitExceeded

DEFAULT_STATE_CAP = 2**22
# Cap on table entries (subset states x letters): 512 MB as int32. Read at
# each call of star_modifier.
TRANSITION_CAP = 2**27
# Subset masks are int64, so bit 62 is the highest an operand state can use.
MAX_OPERAND_STATES = 63
# Bound on the entries of the per-letter subset-image lookup tables.
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


def _unique_first(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique(values, return_index=True, return_inverse=True) for a 1-D array.

    The same sorted distinct values, first-occurrence indices and inverse,
    from one unstable argsort instead of np.unique's stable one: the first
    occurrence is the least index in each run of equal sorted values. On the
    million-entry blocks of star_modifier this takes about half the time. The
    inverse is int32, not np.unique's intp: blocks are far below 2^31 values.
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


def _image_tables(delta: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-letter lookup tables for subset images, and the chunk width in bits.

    delta[i, j] is letter j's image of state i. A mask is read in chunks of
    width bits; tables[c, v, j] is the image under letter j of the states that
    the chunk value v stands for in chunk c. The width is 8 (byte tables) when
    the tables fit in TABLE_ENTRIES, narrower on very wide alphabets.
    """
    n, letters = delta.shape
    width = next(
        w for w in (8, 4, 2, 1)
        if w == 1 or -(-n // w) * letters << w <= TABLE_ENTRIES
    )
    chunks = -(-n // width)
    bits = np.zeros((chunks * width, letters), dtype=np.int64)
    bits[:n] = np.left_shift(np.int64(1), delta.astype(np.int64))
    tables = np.zeros((chunks, 1 << width, letters), dtype=np.int64)
    for b in range(width):
        low = 1 << b
        tables[:, low:2 * low] = tables[:, :low] | bits[b::width, None, :]
    return tables, width


def star_modifier(
    a: Dfa,
    full: bool = False,
    cap_states: int = DEFAULT_STATE_CAP,
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

    The frontier is expanded a block of rows at a time, every letter at once,
    into one table. LimitExceeded is raised once the known subset
    states exceed cap_states or, times the letter count, TRANSITION_CAP; it
    is raised up front if a has more than MAX_OPERAND_STATES states.
    """
    n, letters = a.state_count, a.letter_count
    if n > MAX_OPERAND_STATES:
        raise LimitExceeded(
            f"{n} operand states exceed the limit of {MAX_OPERAND_STATES} for int64 subset masks"
        )

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
    fmask = sum(1 << q for q in a.finals.tolist())
    ibit = 1 << a.initial
    tables, width = _image_tables(a.delta)
    empty_row_image = np.left_shift(np.int64(1), a.delta[a.initial].astype(np.int64))
    chunk = (1 << width) - 1

    def images(masks: np.ndarray) -> np.ndarray:
        out = np.zeros((len(masks), letters), dtype=np.int64)
        for c in range(len(tables)):
            out |= tables[c][(masks >> (width * c)) & chunk]
        out[masks == 0] = empty_row_image
        return np.bitwise_or(out, ibit, out=out, where=(out & fmask) != 0)

    # known holds every mask found so far, sorted, and known_id its state
    known = np.arange(count, dtype=np.int64)
    known_id = np.arange(count, dtype=np.int32)
    pending = known
    step = block_rows(letters)
    # rows of states 0..done-1: one block's rows, so that a small automaton
    # maps no more than it writes; past that, one copy into the largest table
    # the caps allow, backed only where rows are written and cut to count
    # rows at the end without a copy
    limit = min(cap_states, TRANSITION_CAP // max(1, letters))
    table = np.empty((min(step, limit), letters), dtype=np.int32)
    done = 0
    while len(pending):
        parents, pending = pending[:step], pending[step:]
        values, first, inverse = _unique_first(images(parents).reshape(-1))
        at = np.searchsorted(known, values)
        old = known[np.minimum(at, len(known) - 1)] == values
        ids = np.empty(len(values), dtype=np.int32)
        ids[old] = known_id[at[old]]
        new = np.flatnonzero(~old)
        # new masks are numbered by first occurrence in (parent, letter) order
        by_first = new[np.argsort(first[new])]
        ids[by_first] = np.arange(count, count + len(new), dtype=np.int32)
        count += len(new)
        check_caps(count)
        if done + len(parents) > len(table):
            grown = np.empty((limit, letters), dtype=np.int32)
            grown[:done] = table[:done]
            table = grown
        table[done:done + len(parents)] = ids[inverse].reshape(len(parents), letters)
        done += len(parents)
        pending = np.concatenate([pending, values[by_first]])
        where = np.searchsorted(known, values[new])
        known = np.insert(known, where, values[new])
        known_id = np.insert(known_id, where, ids[new])
    table.resize((count, letters), refcheck=False)
    masks = np.empty(count, dtype=np.int64)
    masks[known_id] = known
    return SubsetDfa(
        letters,
        count,
        0,
        np.flatnonzero((masks == 0) | ((masks & fmask) != 0)),
        table,
        a.letter_labels,
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
    labels = a.letter_labels if a.letter_labels is not None else b.letter_labels
    return Dfa(
        a.letter_count,
        n1 * n2,
        a.initial * n2 + b.initial,
        np.flatnonzero(zone),
        delta,
        labels,
    )


def stx(
    a: Dfa,
    b: Dfa,
    full: bool = False,
    cap_states: int = DEFAULT_STATE_CAP,
) -> SubsetDfa:
    """Star of the symmetric difference: star_modifier(xor_modifier(a, b)).

    States are subsets of the n1 x n2 pair grid (bit x*n2+y is the pair
    (x, y)); the zone of product finals is the pairs where exactly one side is
    final, and the seed pair (initial, initial) plays the star's initial
    state. The n1*n2-state product is built in full first, which costs little
    next to the subset construction; full and the caps go to star_modifier.
    """
    return star_modifier(xor_modifier(a, b), full=full, cap_states=cap_states)


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
