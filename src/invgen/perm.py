"""Permutations on points 1..n, with cycle-notation parsing and formatting.

Points are 1-based at the interface and the degree is explicit: a
permutation of degree n <= 256 is a bijection of {1..n}, composed left to
right, (p * q)(i) = q(p(i)).  A Perm holds the one encoding that the
stabilizer chain and the element table also read: the bytes string s of
its 0-based images.  Its table, s padded to 256 bytes with the points from
n up fixed, makes it a right-hand factor: "a, then b" is a.translate(table
of b), one C call of about 50 ns at degree 14 and 340 ns at 256 (CPython
3.11), and a^-1 is bytes.maketrans(a, identity) cut to n.  Strings of one
degree order as image tuples do.  A Perm hashes as its string, and bytes
hashes are randomized per process, so no result may follow the order of a
set of Perms, and seeds hash image tuples.
"""

from __future__ import annotations

import math
import re
from typing import Iterable

_IDENT = bytes(range(256))     # the identity's table


def translation_table(s: bytes) -> bytes:
    """s's 256-byte table: t.translate(it) is the string of "t, then s"."""
    return s + _IDENT[len(s):]


class Perm:
    """An immutable permutation of {1..n}, n <= 256.

    ``bytes`` is its image string (module docstring).  Perms are hashable
    and totally ordered by their image tuples, which gives every algorithm
    in this package a deterministic tie-break order.
    """

    __slots__ = ("bytes",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("degree must be >= 1")
        if n > len(_IDENT):
            raise ValueError(f"degree {n} is past the stabilizer chain's "
                             f"bound of {len(_IDENT)} points")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images}")
        object.__setattr__(self, "bytes", bytes([i - 1 for i in images]))

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @property
    def images(self) -> tuple[int, ...]:
        return tuple([i + 1 for i in self.bytes])

    @property
    def degree(self) -> int:
        return len(self.bytes)

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm(range(1, degree + 1))

    def __call__(self, point: int) -> int:
        return self.bytes[point - 1] + 1

    def __mul__(self, other: "Perm") -> "Perm":
        # apply self first, then other
        if len(self.bytes) != len(other.bytes):
            raise ValueError("degree mismatch in composition")
        return _fast_perm(self.bytes.translate(translation_table(other.bytes)))

    def inverse(self) -> "Perm":
        s = self.bytes
        return _fast_perm(bytes.maketrans(s, _IDENT[:len(s)])[:len(s)])

    def __pow__(self, e: int) -> "Perm":
        if e < 0:
            return self.inverse() ** (-e)
        result = _fast_perm(_IDENT[:self.degree])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self, g: "Perm") -> "Perm":
        """Return self^g = g^-1 * self * g, which sends g(i) to g(self(i))."""
        s, gs = self.bytes, g.bytes
        if len(s) != len(gs):
            raise ValueError("degree mismatch in composition")
        # the image of gs[i] is the image of s[i] under g
        return _fast_perm(bytes.maketrans(
            gs, s.translate(translation_table(gs)))[:len(s)])

    def is_identity(self) -> bool:
        return self.bytes == _IDENT[:len(self.bytes)]

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        s = self.bytes
        seen = [False] * len(s)
        out = []
        for start in range(len(s)):
            if seen[start] or s[start] == start:
                continue
            cyc = [start + 1]
            seen[start] = True
            j = s[start]
            while j != start:
                cyc.append(j + 1)
                seen[j] = True
                j = s[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))     # lcm() is 1

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.bytes == other.bytes

    def __lt__(self, other: "Perm") -> bool:
        return self.bytes < other.bytes

    def __hash__(self) -> int:
        return hash(self.bytes)

    def __repr__(self) -> str:
        return f"Perm({format_cycles(self)!r}, degree={self.degree})"


def _fast_perm(s: bytes) -> Perm:
    """Internal constructor from an image string, skipping validation
    (products and inverses of valid permutations stay valid)."""
    p = object.__new__(Perm)
    object.__setattr__(p, "bytes", s)
    return p


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse disjoint cycle notation over 1..degree.

    Grammar: cycles in parentheses, points in ASCII digits separated by
    whitespace, "()" is the identity.  Points absent from the text are fixed.
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
        if not all(p.isascii() and p.isdigit() for p in pts):
            raise ValueError(f"malformed cycle notation: {text!r}")
        cyc = [int(p) for p in pts]
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
