"""Commutative ring handles: Z, Z/n, small field tables, finite products.

Elements are plain hashable values (int for Z and Z/n, int index for field
tables, tuples for products); matrices over a ring are arrays (see linalg),
which the JSON encoders turn back into Python ints and lists.  Every handle
is immutable, and ring_make builds one per descriptor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from typing import Callable, Iterable, Iterator

import numpy as np


class RingError(ValueError):
    pass


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Miller-Rabin on the primes up to 41 is exact below this bound, the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86,
# 2017); the primes up to 37 alone let 318665857834031151167461 through
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, for n below _MILLER_RABIN_BOUND."""
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from a power of 2 above it."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power(q: int):
    """(p, k) with q = p^k for a prime p, or None, in polylog time: the integer
    k-th root of q for every k up to log2 q, the prime one the only candidate."""
    for k in range(1, q.bit_length()):
        p = _iroot(q, k)
        if p ** k == q and _is_prime(p):
            return p, k
    return None


class Ring:
    """Base interface; subclasses provide exact arithmetic on hashable elements."""

    descriptor: str
    size: int | None  # None for Z

    def __repr__(self) -> str:
        return f"<ring {self.descriptor}>"

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.descriptor == other.descriptor

    def __hash__(self) -> int:
        return hash(self.descriptor)

    # arithmetic ---------------------------------------------------------
    def add(self, a, b): raise NotImplementedError
    def neg(self, a): raise NotImplementedError
    def mul(self, a, b): raise NotImplementedError
    def from_int(self, n: int): raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    # units --------------------------------------------------------------
    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def units(self) -> list:
        return [x for x in self.elements() if self.is_unit(x)]

    @property
    def has_half(self) -> bool:
        return self.is_unit(self.from_int(2))

    @property
    def has_third(self) -> bool:
        return self.is_unit(self.from_int(3))

    # structure ----------------------------------------------------------
    def elements(self) -> Iterator:
        raise RingError(f"{self.descriptor} is not finite")

    @property
    def is_local(self) -> bool:
        """Local in the finite sense: a unique maximal ideal."""
        return False

    def power(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        out, base = self.one, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    # additive structure -------------------------------------------------
    def additive_generators(self) -> list:
        """Generators of the additive group: 1 alone for Z and Z/n, which are
        cyclic; field tables and products override it."""
        return [self.one]

    def additive_coords(self, t) -> list:
        """t as (generator, integer coefficient) pairs over additive_generators."""
        return [(self.one, t)]

    def rand(self, rng):
        raise NotImplementedError

    # json ---------------------------------------------------------------
    def element_to_json(self, a):
        """An element, or a numpy scalar or array of one, as JSON values."""
        if isinstance(a, tuple):
            return list(a)
        return a.tolist() if isinstance(a, (np.ndarray, np.generic)) else a

    def matrix_to_json(self, rows) -> list:
        """Rows of elements, a matrix (an array) or a table of pairs, as JSON lists."""
        if isinstance(rows, np.ndarray):
            return rows.tolist()
        return [[self.element_to_json(v) for v in row] for row in rows]

    def element_from_json(self, data):
        if isinstance(data, list):
            return tuple(self.factors[i].element_from_json(v) for i, v in enumerate(data))
        return data


class ZRing(Ring):
    descriptor = "Z"
    size = None

    def add(self, a, b): return a + b
    def neg(self, a): return -a
    def mul(self, a, b): return a * b
    def from_int(self, n): return n
    def is_unit(self, a): return a in (1, -1)

    def inv(self, a):
        if a not in (1, -1):
            raise RingError(f"{a} is not a unit in Z")
        return a

    def rand(self, rng):
        return rng.randrange(-9, 10)


class ZMod(Ring):
    def __init__(self, n: int):
        if n < 2:
            raise RingError(f"modulus must be at least 2, not {n}; Z/1 is the zero ring")
        self.n = n
        self.descriptor = f"Z/{n}"
        self.size = n

    @cached_property
    def _factors(self) -> dict[int, int]:
        """The prime factorization of n, by trial division on first use, so
        that intake and the precheck's size refusal come before it."""
        return _factorize(self.n)

    def add(self, a, b): return (a + b) % self.n
    def neg(self, a): return (-a) % self.n
    def sub(self, a, b): return (a - b) % self.n
    def mul(self, a, b): return (a * b) % self.n
    def from_int(self, n): return n % self.n
    def is_unit(self, a): return gcd(a, self.n) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise RingError(f"{a} is not a unit in {self.descriptor}")
        return pow(a, -1, self.n)

    def elements(self):
        return iter(range(self.n))

    @property
    def is_local(self):
        return len(self._factors) == 1

    @property
    def residue_char(self) -> int:
        if not self.is_local:
            raise RingError(f"{self.descriptor} is not local")
        return next(iter(self._factors))

    @property
    def nil_degree(self) -> int:
        """k with p^k = 0 for the local ring Z/p^k."""
        if not self.is_local:
            raise RingError(f"{self.descriptor} is not local")
        return self._factors[self.residue_char]

    def rand(self, rng):
        return rng.randrange(self.n)


_IRREDUCIBLE = {  # monic, coefficients low to high over Z/p
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (1, 0, 1),
}


class FieldTable(Ring):
    """GF(p^k) for p^k <= 16, k >= 2, with explicit add/mul tables.

    Elements are indices 0..p^k-1 read as base-p coefficient vectors of
    polynomials modulo a fixed irreducible.
    """

    def __init__(self, p: int, k: int):
        if (p, k) not in _IRREDUCIBLE:
            raise RingError(f"no field table for p={p}, k={k} (need p^k <= 16, k >= 2)")
        self.p, self.k = p, k
        self.size = p ** k
        self.descriptor = f"F{self.size}"
        mod_poly = _IRREDUCIBLE[(p, k)]

        def digits(x):
            out = []
            for _ in range(k):
                out.append(x % p)
                x //= p
            return out

        def undigits(ds):
            x = 0
            for d in reversed(ds):
                x = x * p + d
            return x

        def poly_mul(a, b):
            prod = [0] * (2 * k - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
            # reduce by the irreducible (monic of degree k)
            for i in range(len(prod) - 1, k - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j in range(k):
                        prod[i - k + j] = (prod[i - k + j] - c * mod_poly[j]) % p
            return prod[:k]

        q = self.size
        self._add = tuple(tuple(undigits([(x + y) % p for x, y in zip(digits(a), digits(b))])
                                for b in range(q)) for a in range(q))
        self._mul = tuple(tuple(undigits(poly_mul(digits(a), digits(b)))
                                for b in range(q)) for a in range(q))
        self._neg = tuple(undigits([(-x) % p for x in digits(a)]) for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    inv[a] = b
                    break
        self._inv = tuple(inv)

    def add(self, a, b): return self._add[a][b]
    def neg(self, a): return self._neg[a]
    def mul(self, a, b): return self._mul[a][b]
    def from_int(self, n): return n % self.p
    def is_unit(self, a): return a != 0

    def inv(self, a):
        if a == 0:
            raise RingError(f"0 is not a unit in {self.descriptor}")
        return self._inv[a]

    def elements(self):
        return iter(range(self.size))

    @property
    def is_local(self):
        return True

    @property
    def residue_char(self) -> int:
        return self.p

    @property
    def nil_degree(self) -> int:
        return 1

    def additive_generators(self) -> list:
        """The polynomial basis 1, x, x^2, ... as indices."""
        return [self.p ** i for i in range(self.k)]

    def additive_coords(self, t) -> list:
        """The base-p digits of t, one per basis polynomial."""
        return [(g, (t // g) % self.p) for g in self.additive_generators()]

    def rand(self, rng):
        return rng.randrange(self.size)


class ProductRing(Ring):
    def __init__(self, factors: tuple[Ring, ...]):
        if len(factors) < 2:
            raise RingError("a product needs at least two factors")
        if any(f.size is None for f in factors):
            raise RingError("product factors must be finite")
        self.factors = factors
        self.descriptor = "x".join(f.descriptor for f in factors)
        self.size = 1
        for f in factors:
            self.size *= f.size

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a):
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def from_int(self, n):
        return tuple(f.from_int(n) for f in self.factors)

    def is_unit(self, a):
        return all(f.is_unit(x) for f, x in zip(self.factors, a))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def elements(self):
        return (tuple(xs) for xs in itertools.product(*(f.elements() for f in self.factors)))

    def project(self, i: int, a):
        return a[i]

    def embed(self, i: int, x):
        """x in factor i, zero elsewhere."""
        return tuple(x if j == i else f.zero for j, f in enumerate(self.factors))

    def additive_generators(self) -> list:
        return [self.embed(i, g) for i, f in enumerate(self.factors)
                for g in f.additive_generators()]

    def additive_coords(self, t) -> list:
        return [(self.embed(i, g), c) for i, f in enumerate(self.factors)
                for g, c in f.additive_coords(t[i])]

    def rand(self, rng):
        return tuple(f.rand(rng) for f in self.factors)


@lru_cache(maxsize=None)
def ring_make(descriptor: str) -> Ring:
    """Build a ring handle from a descriptor like "Z", "Z/6", "F4", "Z/3xZ/3"."""
    text = descriptor.strip()
    if "x" in text:
        parts = text.split("x")
        ring: Ring = ProductRing(tuple(ring_make(p) for p in parts))
    elif text == "Z":
        ring = ZRing()
    elif text.startswith("Z/"):
        try:
            n = int(text[2:])
        except ValueError:
            raise RingError(f"bad modulus in {text!r}")
        ring = ZMod(n)
    elif text.startswith("F"):
        try:
            q = int(text[1:])
        except ValueError:
            raise RingError(f"bad field size in {text!r}")
        if q >= _MILLER_RABIN_BOUND:
            raise RingError(f"field size {q} is too large to test for a prime power")
        pk = _prime_power(q)
        if pk is None:
            raise RingError(f"{q} is not a prime power")
        p, k = pk
        ring = ZMod(p) if k == 1 else FieldTable(p, k)
    else:
        raise RingError(f"unknown ring descriptor {descriptor!r}")
    return ring


# ---------------------------------------------------------------------------
# CRT splitting into local factors


@dataclass(frozen=True)
class LocalFactor:
    ring: Ring                     # a local ring (Z/p^k or field table)
    project: Callable              # parent element -> factor element
    embed: Callable                # factor element -> parent element (idempotent slot)
    idempotent: object             # the idempotent of the parent supporting this factor


@dataclass(frozen=True)
class CrtSplit:
    ring: Ring
    factors: tuple[LocalFactor, ...]

    def from_factors(self, xs: Iterable) -> object:
        out = self.ring.zero
        for f, x in zip(self.factors, xs):
            out = self.ring.add(out, f.embed(x))
        return out


def crt_split(ring: Ring) -> CrtSplit:
    """Split a finite ring into local factors with explicit idempotents."""
    if isinstance(ring, ZMod):
        fac = sorted(ring._factors.items())
        if len(fac) == 1:
            return CrtSplit(ring, (LocalFactor(ring, lambda x: x, lambda x: x,
                                               ring.one),))
        factors = []
        for p, k in fac:
            q = p ** k
            rest = ring.n // q
            # idempotent e = rest * (rest^-1 mod q): 1 mod q, 0 mod rest
            e = rest * pow(rest, -1, q) % ring.n
            sub = ring_make(f"Z/{q}")
            factors.append(LocalFactor(
                ring=sub,
                project=lambda x, q=q: x % q,
                embed=lambda x, e=e, n=ring.n: (x * e) % n,
                idempotent=e,
            ))
        return CrtSplit(ring, tuple(factors))
    if isinstance(ring, FieldTable):
        return CrtSplit(ring, (LocalFactor(ring, lambda x: x, lambda x: x,
                                           ring.one),))
    if isinstance(ring, ProductRing):
        factors = []
        for i, f in enumerate(ring.factors):
            inner = crt_split(f)
            for lf in inner.factors:
                def project(x, i=i, lf=lf):
                    return lf.project(x[i])

                def embed(x, i=i, lf=lf):
                    return ring.embed(i, lf.embed(x))

                factors.append(LocalFactor(lf.ring, project, embed,
                                           ring.embed(i, lf.idempotent)))
        return CrtSplit(ring, tuple(factors))
    raise RingError(f"cannot CRT-split {ring.descriptor}")


# ---------------------------------------------------------------------------
# ring automorphisms


@dataclass(frozen=True)
class RingAut:
    ring: Ring
    table: tuple  # pairs (x, image) sorted, the full graph of the map
    name: str

    def __call__(self, x):
        if not self.table:
            # empty table marks the identity on an infinite ring
            return x
        m = self.__dict__.get("_map")
        if m is None:
            m = dict(self.table)
            object.__setattr__(self, "_map", m)
        return m[x]

    @property
    def is_identity(self) -> bool:
        return all(x == y for x, y in self.table)

    def same_map(self, other: "RingAut") -> bool:
        return self.table == other.table


def _aut_from_fn(ring: Ring, fn, name: str) -> RingAut:
    pairs = tuple(sorted((x, fn(x)) for x in ring.elements()))
    return RingAut(ring, pairs, name)


def is_ring_automorphism(ring: Ring, table: dict) -> bool:
    """Whether a parameter table is one of ring_automorphisms(ring).

    Called on local factors only, Z/p^k and GF(p^k), where that enumeration
    is complete: a ring map of Z/p^k fixes 1 and so everything, and the
    automorphisms of GF(p^k) are the k powers of Frobenius.  Raises RingError
    on any other ring.
    """
    if not ring.is_local:
        raise RingError(f"{ring.descriptor} is not a local ring")
    return tuple(sorted(table.items())) in [aut.table for aut in ring_automorphisms(ring)]


def ring_automorphisms(ring: Ring) -> tuple[RingAut, ...]:
    """All ring automorphisms; identity first, order deterministic."""
    if isinstance(ring, ZRing):
        return (RingAut(ring, (), "id"),)
    if isinstance(ring, ZMod):
        return (_aut_from_fn(ring, lambda x: x, "id"),)
    if isinstance(ring, FieldTable):
        out = []
        for i in range(ring.k):
            out.append(_aut_from_fn(ring, lambda x, i=i: ring.power(x, ring.p ** i),
                                    "id" if i == 0 else f"frob^{i}"))
        return tuple(out)
    if isinstance(ring, ProductRing):
        per_factor = [ring_automorphisms(f) for f in ring.factors]
        m = len(ring.factors)
        out = []
        for perm in itertools.permutations(range(m)):
            if any(ring.factors[perm[i]].descriptor != ring.factors[i].descriptor
                   for i in range(m)):
                continue
            for combo in itertools.product(*per_factor):
                def fn(x, perm=perm, combo=combo):
                    # factor j of the image comes from factor perm^-1(j)... with
                    # equal descriptors we can read it as x[perm[j]] twisted.
                    return tuple(combo[j](x[perm[j]]) for j in range(m))
                name = f"perm{perm}+" + ",".join(c.name for c in combo)
                out.append(_aut_from_fn(ring, fn, name))
        dedup: list[RingAut] = []
        for aut in out:
            if not any(aut.same_map(o) for o in dedup):
                dedup.append(aut)
        dedup.sort(key=lambda a: (not a.is_identity, a.table))
        return tuple(dedup)
    raise RingError(f"no automorphism enumeration for {ring.descriptor}")
