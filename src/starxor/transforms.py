"""Total maps on a finite state set, the letter material for monster automata."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

ENUM_LIMIT = 10**6


class LimitExceeded(RuntimeError):
    """An enumeration or construction would exceed its resource cap."""


@dataclass(frozen=True)
class Transformation:
    """A total map on range(n), encoded by its tuple of images.

    The images tuple is the canonical encoding: two transformations are equal
    exactly when their tuples are.
    """

    n: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        if self.n < 1:
            raise ValueError("domain size must be at least 1")
        if len(self.images) != self.n:
            raise ValueError(f"expected {self.n} images, got {len(self.images)}")
        if any(not 0 <= q < self.n for q in self.images):
            raise ValueError(f"image out of range for n={self.n}: {self.images}")

    def __call__(self, q: int) -> int:
        return self.images[q]

    def render(self) -> str:
        """Bracketed image list, digits juxtaposed while they stay single."""
        if self.n <= 10:
            return "[" + "".join(str(q) for q in self.images) + "]"
        return "[" + " ".join(str(q) for q in self.images) + "]"


def identity(n: int) -> Transformation:
    return Transformation(n, tuple(range(n)))


def cycle(n: int, support: Iterable[int]) -> Transformation:
    """Cyclic shift on the listed states, identity elsewhere.

    An empty or singleton support degenerates to the identity.
    """
    sup = tuple(support)
    if len(set(sup)) != len(sup):
        raise ValueError(f"support repeats a state: {sup}")
    if any(not 0 <= q < n for q in sup):
        raise ValueError(f"support out of range for n={n}: {sup}")
    images = list(range(n))
    for i, q in enumerate(sup):
        images[q] = sup[(i + 1) % len(sup)]
    return Transformation(n, tuple(images))


def point_map(n: int, a: int, b: int) -> Transformation:
    """Sends a to b and fixes every other state."""
    if not 0 <= a < n or not 0 <= b < n:
        raise ValueError(f"point map ({a} to {b}) out of range for n={n}")
    images = list(range(n))
    images[a] = b
    return Transformation(n, tuple(images))


def transformation_count(n: int) -> int:
    return n**n


def enumerate_all(n: int) -> list[Transformation]:
    """All n^n transformations of range(n), in lexicographic image order."""
    if transformation_count(n) > ENUM_LIMIT:
        raise LimitExceeded(f"{n}^{n} transformations exceed the cap of {ENUM_LIMIT}")
    return [
        Transformation(n, images)
        for images in itertools.product(range(n), repeat=n)
    ]
