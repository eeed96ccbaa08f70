"""Reduced irreducible root systems in the basis of simple roots.

Roots are integer coefficient tuples over the simple roots, generated from
the Cartan matrix alone by chain extension.  The enumeration order is frozen:
positive roots ascend by height with descending lexicographic coefficient
tuples inside a height, and every positive root is immediately followed by
its negative; the rank many Cartan slots come last.  Several anchor matrices
in the test suite pin this order, so do not change it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

Root = Tuple[int, ...]

_SUPPORTED = {"A": (2, 8), "B": (2, 8), "C": (2, 8), "D": (4, 8),
              "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def parse_system(text: str) -> tuple[str, int]:
    """Parse a descriptor like "A2" or "E6" into (kind, rank)."""
    text = text.strip()
    if len(text) < 2 or text[0].upper() not in _SUPPORTED or not text[1:].isdigit():
        raise ValueError(f"unsupported root system descriptor {text!r}")
    kind, rank = text[0].upper(), int(text[1:])
    lo, hi = _SUPPORTED[kind]
    if not lo <= rank <= hi:
        raise ValueError(f"rank {rank} out of range for type {kind} (need {lo}..{hi})")
    return kind, rank


def cartan_matrix(kind: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entry [i][j] = <alpha_j, alpha_i>, Bourbaki numbering."""
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2

    def link(i: int, j: int, ij: int = -1, ji: int = -1) -> None:
        a[i][j] = ij
        a[j][i] = ji

    if kind in ("A", "B", "C", "F", "G"):
        for i in range(rank - 1):
            link(i, i + 1)
    if kind == "B" and rank >= 2:
        # alpha_rank is short: row rank-1 carries the -2
        a[rank - 1][rank - 2] = -2
    if kind == "C" and rank >= 2:
        # alpha_rank is long
        a[rank - 2][rank - 1] = -2
    if kind == "D":
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 3, rank - 1)
        a[rank - 2][rank - 1] = a[rank - 1][rank - 2] = 0
    if kind == "E":
        # chain 1-3-4-5-..., node 2 hangs off node 4 (Bourbaki), 0-indexed here
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for x, y in zip(chain, chain[1:]):
            link(x, y)
        link(1, 3)
    if kind == "F":
        a[2][1] = -2
        a[1][2] = -1
    if kind == "G":
        a[0][1] = -3
        a[1][0] = -1
    return tuple(tuple(row) for row in a)


def _symmetrizer(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Positive integers d with d_i * A[i][j] = d_j * A[j][i] (connected diagram)."""
    rank = len(cartan)
    d: list[Fraction | None] = [None] * rank
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                todo.append(j)
    assert all(x is not None for x in d), "Dynkin diagram must be connected"
    scale = 1
    for x in d:
        scale = scale * x.denominator // _gcd(scale, x.denominator)
    out = tuple(int(x * scale) for x in d)
    g = 0
    for x in out:
        g = _gcd(g, x)
    return tuple(x // g for x in out)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


@dataclass(frozen=True)
class DiagramSymmetry:
    """A permutation of the simple roots preserving the Cartan matrix."""

    perm: tuple[int, ...]

    @property
    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    def order(self) -> int:
        n, p = 1, self.perm
        cur = p
        while any(c != i for i, c in enumerate(cur)):
            cur = tuple(p[c] for c in cur)
            n += 1
        return n

    def apply_root(self, root: Root) -> Root:
        out = [0] * len(root)
        for i, c in enumerate(root):
            out[self.perm[i]] = c
        return tuple(out)


@dataclass(frozen=True, eq=False)
class RootSystem:
    kind: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    positives: tuple[Root, ...]
    roots: tuple[Root, ...]          # frozen enumeration order, +/- interleaved

    @property
    def name(self) -> str:
        return f"{self.kind}{self.rank}"

    @property
    def dimension(self) -> int:
        """Dimension of the adjoint module: |roots| + rank."""
        return len(self.roots) + self.rank

    def root_index(self, root: Root) -> int:
        return self._index[root]

    def is_root(self, vec: Root) -> bool:
        return vec in self._index

    def height(self, root: Root) -> int:
        return sum(root)

    def inner(self, x: Root, y: Root) -> int:
        b = 0
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        b += xi * yj * self.symmetrizer[i] * self.cartan[i][j]
        return b

    def norm2(self, root: Root) -> int:
        return self.inner(root, root)

    def pairing(self, beta: Root, alpha: Root) -> int:
        """<beta, alpha> = 2 (beta, alpha) / (alpha, alpha); always an integer."""
        num = 2 * self.inner(beta, alpha)
        den = self.norm2(alpha)
        assert num % den == 0, (beta, alpha)
        return num // den

    def reflect(self, beta: Root, alpha: Root) -> Root:
        k = self.pairing(beta, alpha)
        return tuple(b - k * a for b, a in zip(beta, alpha))

    def negate(self, root: Root) -> Root:
        return tuple(-c for c in root)

    def simple(self, i: int) -> Root:
        return tuple(1 if j == i else 0 for j in range(self.rank))


def _enumerate_positives(cartan: tuple[tuple[int, ...], ...]) -> list[Root]:
    rank = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    known: set[Root] = set(simples)
    level: list[Root] = list(simples)
    out: list[Root] = list(simples)
    while level:
        nxt: set[Root] = set()
        for beta in level:
            for i in range(rank):
                # p from the already complete lower part of the chain
                p = 0
                cur = tuple(b - s for b, s in zip(beta, simples[i]))
                while cur in known:
                    p += 1
                    cur = tuple(b - s for b, s in zip(cur, simples[i]))
                pairing = sum(c * cartan[i][j] for j, c in enumerate(beta))
                if p - pairing >= 1:
                    cand = tuple(b + s for b, s in zip(beta, simples[i]))
                    if cand not in known:
                        nxt.add(cand)
        known.update(nxt)
        out.extend(nxt)
        level = list(nxt)
    return sorted(out, key=lambda r: (sum(r), tuple(-c for c in r)))


@lru_cache(maxsize=None)
def build_root_system(kind: str, rank: int) -> RootSystem:
    """Construct the root system of the given type in the frozen order."""
    if kind not in _SUPPORTED:
        raise ValueError(f"unsupported kind {kind!r}")
    lo, hi = _SUPPORTED[kind]
    if not lo <= rank <= hi:
        raise ValueError(f"rank {rank} out of range for type {kind} (need {lo}..{hi})")
    cartan = cartan_matrix(kind, rank)
    positives = tuple(_enumerate_positives(cartan))
    roots: list[Root] = []
    for pos in positives:
        roots.append(pos)
        roots.append(tuple(-c for c in pos))
    system = RootSystem(
        kind=kind,
        rank=rank,
        cartan=cartan,
        symmetrizer=_symmetrizer(cartan),
        positives=positives,
        roots=tuple(roots),
    )
    object.__setattr__(system, "_index", {r: i for i, r in enumerate(system.roots)})
    return system


def system_from_name(name: str) -> RootSystem:
    return build_root_system(*parse_system(name))


@lru_cache(maxsize=None)
def diagram_symmetries(system: RootSystem) -> tuple[DiagramSymmetry, ...]:
    """All Cartan-matrix preserving permutations of the simple roots, identity first."""
    rank = system.rank
    found = []
    for perm in itertools.permutations(range(rank)):
        if all(system.cartan[perm[i]][perm[j]] == system.cartan[i][j]
               for i in range(rank) for j in range(rank)):
            found.append(perm)
    found.sort(key=lambda p: (p != tuple(range(rank)), p))
    return tuple(DiagramSymmetry(p) for p in found)
