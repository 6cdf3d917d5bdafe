"""Star and xor constructions, and the star of the xor product.

Each construction reads only the operands' state configurations and, letter by
letter, the transformations the letter induces. Nothing else about the operand
languages is consulted, which keeps every construction compatible with letter
renamings by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .automata import Dfa, is_equivalent, preimage_by_renaming
from .transforms import LimitExceeded

DEFAULT_STATE_CAP = 2**22


@dataclass(frozen=True)
class SubsetDfa(Dfa):
    """DFA whose states stand for subsets of an underlying state set.

    state_masks[q] is the bitmask of the subset state q stands for; bit i is
    underlying state i (for products, bit x*n2+y is the pair (x, y)).
    """

    state_masks: tuple[int, ...] = ()

    def mask_of(self, q: int) -> int:
        return self.state_masks[q]


@lru_cache(maxsize=None)
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
    finals. By default only the forward closure of the empty set is built;
    full=True materializes all 2^n subsets with state index equal to bitmask.
    """
    n = a.state_count
    fmask = 0
    for q in a.finals:
        fmask |= 1 << q
    ibit = 1 << a.initial
    columns = [
        tuple(a.delta[q][j] for q in range(n))
        for j in range(a.letter_count)
    ]
    tables = [_byte_tables(col) for col in columns]
    empty_row_image = [1 << col[a.initial] for col in columns]

    def step(mask: int, j: int) -> int:
        img = empty_row_image[j] if mask == 0 else _image(mask, tables[j])
        return img | ibit if img & fmask else img

    if full:
        if (1 << n) > cap_states:
            raise LimitExceeded(f"2^{n} subset states exceed the cap of {cap_states}")
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
                    if len(masks) >= cap_states:
                        raise LimitExceeded(f"subset states exceed the cap of {cap_states}")
                    index[nxt] = len(masks)
                    masks.append(nxt)
                row.append(index[nxt])
            rows.append(tuple(row))
        delta = tuple(rows)
    finals = frozenset(
        q for q, mask in enumerate(masks) if mask == 0 or mask & fmask
    )
    return SubsetDfa(
        a.letter_count,
        len(masks),
        0,
        finals,
        delta,
        a.letter_labels,
        tuple(masks),
    )


def xor_modifier(a: Dfa, b: Dfa) -> Dfa:
    """Product DFA on all state pairs, final when exactly one side is final.

    Pair (x, y) is state x*n2+y; the shared letter j acts coordinatewise.
    """
    if a.letter_count != b.letter_count:
        raise ValueError("xor needs operands over a common alphabet")
    n2 = b.state_count
    delta = tuple(
        tuple(a.delta[x][j] * n2 + b.delta[y][j] for j in range(a.letter_count))
        for x in range(a.state_count)
        for y in range(n2)
    )
    finals = frozenset(
        x * n2 + y
        for x in range(a.state_count)
        for y in range(n2)
        if (x in a.finals) != (y in b.finals)
    )
    labels = a.letter_labels if a.letter_labels is not None else b.letter_labels
    return Dfa(
        a.letter_count,
        a.state_count * n2,
        a.initial * n2 + b.initial,
        finals,
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
    next to the subset construction; full and cap_states go to star_modifier.
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
