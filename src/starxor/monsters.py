"""Monster automata: one letter per transformation tuple of the state sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .automata import Dfa
from .transforms import LimitExceeded, Transformation, transformation_count

DEFAULT_LETTER_CAP = 10**6


@dataclass(frozen=True)
class PairLetter:
    """A shared-alphabet letter for two automata: one transformation each."""

    first: Transformation
    second: Transformation

    def render(self) -> str:
        return f"({self.first.render()},{self.second.render()})"


@dataclass(frozen=True)
class MonsterSpec:
    """Sizes and final sets for a family of monsters sharing one alphabet."""

    sizes: tuple[int, ...]
    finals: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "finals", tuple(frozenset(f) for f in self.finals))
        if not self.sizes:
            raise ValueError("at least one automaton size is required")
        if len(self.finals) != len(self.sizes):
            raise ValueError("one final set per size is required")
        for n, f in zip(self.sizes, self.finals):
            if n < 1:
                raise ValueError("sizes must be at least 1")
            if any(not 0 <= q < n for q in f):
                raise ValueError(f"final state out of range for size {n}: {sorted(f)}")

    @classmethod
    def pair(
        cls,
        n1: int,
        n2: int,
        finals1: Iterable[int],
        finals2: Iterable[int],
    ) -> "MonsterSpec":
        return cls((n1, n2), (frozenset(finals1), frozenset(finals2)))

    def letter_total(self) -> int:
        total = 1
        for n in self.sizes:
            total *= transformation_count(n)
        return total


def monster(spec: MonsterSpec, cap_letters: int = DEFAULT_LETTER_CAP) -> tuple[Dfa, ...]:
    """The monsters of spec, one per size, sharing the product alphabet.

    Letters are tuples of transformations, enumerated in lexicographic
    (first, second, ...) order; coordinate i acts on automaton i by
    delta(q, letter) = letter[i](q). Every automaton starts in state 0.
    Letter L is the mixed-radix number of its coordinates' ranks, and a rank
    is the base-n number of its image tuple, so delta[q, L] is digit q of
    coordinate i's rank. A letter is just its number.
    """
    total = spec.letter_total()
    if total > cap_letters:
        raise LimitExceeded(f"{total} letters exceed the cap of {cap_letters}")
    ranks = np.unravel_index(
        np.arange(total), [transformation_count(n) for n in spec.sizes]
    )
    return tuple(
        Dfa(
            total,
            n,
            0,
            spec.finals[coord],
            np.stack(np.unravel_index(ranks[coord], (n,) * n)),
        )
        for coord, n in enumerate(spec.sizes)
    )


def monster1(
    n: int,
    finals: Iterable[int],
    cap_letters: int = DEFAULT_LETTER_CAP,
) -> Dfa:
    """The single monster on n states with the given finals: alphabet n^n."""
    return monster(MonsterSpec((n,), (frozenset(finals),)), cap_letters)[0]


def monster2(
    spec: MonsterSpec,
    cap_letters: int = DEFAULT_LETTER_CAP,
) -> tuple[Dfa, Dfa]:
    """The two monsters of a k=2 spec, sharing the pair alphabet."""
    if len(spec.sizes) != 2:
        raise ValueError("monster2 needs exactly two sizes")
    pair = monster(spec, cap_letters)
    return pair[0], pair[1]

