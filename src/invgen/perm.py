"""Permutations on points 1..n, with cycle-notation parsing and formatting.

Points are 1-based throughout and the degree is always explicit: a
permutation of degree n is a bijection of {1..n}, stored as the tuple of
images of 1..n.  Composition is left-to-right: (p * q)(i) = q(p(i)).
"""

from __future__ import annotations

import math
import re
from typing import Iterable


class Perm:
    """An immutable permutation of {1..n}.

    images[i-1] is the image of point i.  Perms are hashable and totally
    ordered by their image tuples, which gives every algorithm in this
    package a deterministic tie-break order.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("degree must be >= 1")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Perm":
        return _fast_perm(tuple(range(1, degree + 1)))

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        # apply self first, then other
        oi = other.images
        si = self.images
        if len(si) != len(oi):
            raise ValueError("degree mismatch in composition")
        return _fast_perm(tuple([oi[j - 1] for j in si]))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j - 1] = i + 1
        return _fast_perm(tuple(inv))

    def __pow__(self, e: int) -> "Perm":
        if e < 0:
            return self.inverse() ** (-e)
        result = Perm.identity(self.degree)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self, g: "Perm") -> "Perm":
        """Return self^g = g^-1 * self * g, which sends g(i) to g(self(i))."""
        gi = g.images
        if len(gi) != len(self.images):
            raise ValueError("degree mismatch in composition")
        out = [0] * len(gi)
        for i, j in zip(gi, self.images):
            out[i - 1] = gi[j - 1]
        return _fast_perm(tuple(out))

    def is_identity(self) -> bool:
        images = self.images
        return images == _IDENT_CACHE.setdefault(
            len(images), tuple(range(1, len(images) + 1)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1] or self.images[start - 1] == start:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self.images[start - 1]
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = self.images[j - 1]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))     # lcm() is 1

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({format_cycles(self)!r}, degree={self.degree})"


_IDENT_CACHE: dict[int, tuple] = {}


def _fast_perm(images: tuple) -> Perm:
    """Internal constructor skipping bijection validation (products and
    inverses of valid permutations stay valid)."""
    p = object.__new__(Perm)
    object.__setattr__(p, "images", images)
    return p


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse disjoint cycle notation over 1..degree.

    Grammar: cycles in parentheses, points separated by whitespace,
    "()" is the identity.  Points absent from the text are fixed.
    Repeated points (within or across cycles) are an error: the input
    must be genuinely disjoint cycles.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty cycle string (use '()' for the identity)")
    leftover = _CYCLE_RE.sub("", stripped).strip()
    if leftover:
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(1, degree + 1))
    used: set[int] = set()
    for body in _CYCLE_RE.findall(stripped):
        pts = body.split()
        if not pts:
            continue
        try:
            cyc = [int(p) for p in pts]
        except ValueError:
            raise ValueError(f"malformed cycle notation: {text!r}") from None
        for p in cyc:
            if not 1 <= p <= degree:
                raise ValueError(f"point {p} out of range 1..{degree}")
            if p in used:
                raise ValueError(f"repeated point {p} in {text!r}")
            used.add(p)
        for a, b in zip(cyc, cyc[1:]):
            images[a - 1] = b
        images[cyc[-1] - 1] = cyc[0]
    return Perm(images)


def format_cycles(p: Perm) -> str:
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)
