"""The fixed 17-letter witness alphabet and the pair of automata it drives."""

from __future__ import annotations

import numpy as np

from .automata import Dfa
from .modifiers import DEFAULT_STATE_CAP
from .monsters import PairLetter
from .reports import ExperimentReport, size_report
from .transforms import cycle, identity, point_map


def sigma_prime(n1: int, n2: int) -> tuple[PairLetter, ...]:
    """Seventeen pair letters: five cycles, six transpositions, six point maps.

    The list is fixed for all sizes. Degenerate supports (empty or singleton)
    give identity coordinates and small sizes make some letters coincide;
    duplicates are kept so the alphabet always has exactly 17 letters.
    """
    if n1 < 2 or n2 < 2:
        raise ValueError("the witness alphabet needs both sizes at least 2")
    one, two = identity(n1), identity(n2)
    raw = [
        (cycle(n1, range(0, n1 - 1)), two),
        (cycle(n1, range(1, n1 - 1)), two),
        (one, cycle(n2, range(1, n2 - 1))),
        (cycle(n1, range(1, n1)), two),
        (one, cycle(n2, range(1, n2))),
        (cycle(n1, (0, n1 - 1)), two),
        (one, cycle(n2, (0, n2 - 1))),
        (cycle(n1, (0, 1)), cycle(n2, (0, 1))),
        (cycle(n1, (0, 1)), two),
        (one, cycle(n2, (0, 1))),
        (cycle(n1, (n1 - 2, n1 - 1)), two),
        (point_map(n1, 1, 0), two),
        (one, point_map(n2, 1, 0)),
        (point_map(n1, n1 - 2, n1 - 1), two),
        (one, point_map(n2, n2 - 2, n2 - 1)),
        (point_map(n1, n1 - 1, 0), two),
        (one, point_map(n2, n2 - 1, 0)),
    ]
    return tuple(PairLetter(f, g) for f, g in raw)


def witness_pair(n1: int, n2: int) -> tuple[Dfa, Dfa]:
    """The 17-letter automata: finals {n1-1} on the first, {0} on the second."""
    letters = sigma_prime(n1, n2)
    first = np.column_stack([letter.first.images for letter in letters])
    second = np.column_stack([letter.second.images for letter in letters])
    return (
        Dfa(len(letters), n1, 0, frozenset({n1 - 1}), first),
        Dfa(len(letters), n2, 0, frozenset({0}), second),
    )


def verify_witness(
    n1: int,
    n2: int,
    cap_states: int = DEFAULT_STATE_CAP,
) -> ExperimentReport:
    """Build the witness star-of-xor, count its classes, compare with the prediction."""
    return size_report(
        "verify-witness", n1, n2, "witness", lambda: witness_pair(n1, n2), cap_states
    )
