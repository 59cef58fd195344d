"""Integer linear algebra for finite abelian groups.

Smith normal form over arbitrary-precision integers, canonical invariant
factors, Z-tensor products, and the closed product formula for the diagonal
subgroup of a finite abelian group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .errors import CapacityError

__all__ = [
    "AbelianInvariants",
    "smith_normal_form",
    "canonical_invariants",
    "invariants_from_element_orders",
    "z_tensor",
    "delta_of_abelian",
    "pi_set",
    "prime_factors",
]


@dataclass(frozen=True)
class AbelianInvariants:
    """Divisor chain d1 | d2 | ... | dk with every di >= 2.

    The chain classifies a finite abelian group up to isomorphism; the
    trivial group is the empty chain.
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        for d in self.factors:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"invariant factor {d!r} must be an integer >= 2")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValueError(f"broken divisor chain: {a} does not divide {b}")

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def exponent(self) -> int:
        return self.factors[-1] if self.factors else 1

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return "[" + ", ".join(str(d) for d in self.factors) + "]"


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (D, U, V) with U*M*V = D diagonal, d1 | d2 | ..., U, V unimodular.

    Pivoting picks the least absolute value with first-occurrence tie-breaking,
    so the reduction (and the transforms) are deterministic. D has the shape of
    M with non-negative diagonal entries.
    """
    nr = len(matrix)
    nc = len(matrix[0]) if nr else 0
    a = []
    for row in matrix:
        if len(row) != nc:
            raise ValueError("matrix rows must all have the same length")
        a.append([int(x) for x in row])
    u = _identity(nr)
    v = _identity(nc)

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src: int, dst: int, mult: int) -> None:
        # row[dst] += mult * row[src]
        arow, asrc = a[dst], a[src]
        for k in range(nc):
            arow[k] += mult * asrc[k]
        urow, usrc = u[dst], u[src]
        for k in range(nr):
            urow[k] += mult * usrc[k]

    def add_col(src: int, dst: int, mult: int) -> None:
        for row in a:
            row[dst] += mult * row[src]
        for row in v:
            row[dst] += mult * row[src]

    t = 0
    while t < min(nr, nc):
        # Locate the smallest non-zero entry of the trailing submatrix.
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                val = abs(a[i][j])
                if val and (best is None or val < best):
                    best = val
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            # Euclidean elimination of column t and row t.
            dirty = True
            while dirty:
                dirty = False
                for i in range(t + 1, nr):
                    if a[i][t]:
                        q = a[i][t] // a[t][t]
                        add_row(t, i, -q)
                        if a[i][t]:
                            # Remainder is a smaller pivot; bring it up.
                            swap_rows(t, i)
                            dirty = True
                for j in range(t + 1, nc):
                    if a[t][j]:
                        q = a[t][j] // a[t][t]
                        add_col(t, j, -q)
                        if a[t][j]:
                            swap_cols(t, j)
                            dirty = True
            # Divisibility of the whole trailing block by the pivot.
            d = a[t][t]
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        t += 1

    for k in range(min(nr, nc)):
        if a[k][k] < 0:
            for j in range(nc):
                a[k][j] = -a[k][j]
            for j in range(nr):
                u[k][j] = -u[k][j]
    return a, u, v


def canonical_invariants(factors: Iterable[int]) -> AbelianInvariants:
    """Canonical divisor chain of a direct product of cyclic groups.

    Accepts cyclic orders in any arrangement (1s allowed and dropped). Each
    is split into its prime powers; the largest power of every prime goes
    into the last factor of the chain, the next largest into the one before
    it, and so on.
    """
    powers: dict[int, list[int]] = {}
    for f in factors:
        f = int(f)
        if f < 1:
            raise ValueError(f"cyclic order {f} must be >= 1")
        for p in prime_factors(f):
            q = p
            while f % (q * p) == 0:
                q *= p
            powers.setdefault(p, []).append(q)
    chain = [1] * max(map(len, powers.values()), default=0)
    for qs in powers.values():
        for slot, q in enumerate(sorted(qs, reverse=True)):
            chain[slot] *= q
    return AbelianInvariants(tuple(reversed(chain)))


def invariants_from_element_orders(orders: Iterable[int]) -> AbelianInvariants:
    """Invariants of a finite abelian group given the orders of all elements.

    For each prime p, the census of solutions of x^(p^j) = 1 determines the
    p-primary partition, whose cyclic factors canonical_invariants then
    aligns into a divisor chain.
    """
    census = Counter(int(o) for o in orders)
    n = sum(census.values())
    if n == 0:
        raise ValueError("empty element-order census")
    if census.get(1, 0) != 1:
        raise ValueError("census must contain exactly one identity element")
    powers = []
    for p in prime_factors(n):
        # c[j] = number of x with x^(p^j) = 1, i.e. with p-power order <= p^j.
        emax = 0
        q = p
        while n % q == 0:
            emax += 1
            q *= p
        c = []
        for j in range(emax + 1):
            pj = p**j
            c.append(sum(cnt for o, cnt in census.items() if pj % o == 0))
        # m[j] = number of cyclic factors of order >= p^j in the p-component.
        m = []
        for j in range(1, emax + 1):
            ratio, rem = divmod(c[j], c[j - 1])
            if rem:
                raise ValueError("order census is not that of an abelian group")
            e = 0
            while ratio > 1:
                ratio, rem = divmod(ratio, p)
                if rem:
                    raise ValueError("order census is not that of an abelian group")
                e += 1
            m.append(e)
        for j, mj in enumerate(m, start=1):
            nxt = m[j] if j < len(m) else 0
            powers.extend([p**j] * (mj - nxt))
    result = canonical_invariants(powers)
    if result.order != n:
        raise ValueError("order census is not that of an abelian group")
    return result


def z_tensor(a, b) -> AbelianInvariants:
    """Tensor product over Z: invariants of the direct sum of C_gcd(di, ej).

    Either argument may be an AbelianInvariants or a plain iterable of
    cyclic factor orders, which is canonicalized first.
    """
    if not isinstance(a, AbelianInvariants):
        a = canonical_invariants(a)
    if not isinstance(b, AbelianInvariants):
        b = canonical_invariants(b)
    return canonical_invariants(gcd(x, y) for x in a.factors for y in b.factors)


def delta_of_abelian(a: AbelianInvariants) -> AbelianInvariants:
    """Diagonal subgroup of the tensor square of a finite abelian group.

    For A = C_n1 x ... x C_nr (the canonical chain as the n_i), the diagonal
    subgroup is the product of all C_ni and one C_gcd(nj, nk) per pair j < k,
    returned in canonical form.
    """
    ns = a.factors
    parts = list(ns)
    for j in range(len(ns)):
        for k in range(j + 1, len(ns)):
            parts.append(gcd(ns[j], ns[k]))
    return canonical_invariants(parts)


def prime_factors(n: int) -> tuple[int, ...]:
    """Ascending tuple of the distinct primes dividing n (n >= 1), by trial division up to 10^6.

    A cofactor left above 10^12 with no divisor that small raises CapacityError.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if d > 10**6:
            raise CapacityError(f"{n} has no prime factor up to 10^6 and is above 10^12", count=n)
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def pi_set(x: int | AbelianInvariants | Iterable[int]) -> frozenset[int]:
    """Set of primes dividing the group order or the given element orders.

    Accepts a group order, an AbelianInvariants, or an iterable of element
    orders; the trivial group gives the empty set.
    """
    if isinstance(x, AbelianInvariants):
        return frozenset(prime_factors(x.order))
    if isinstance(x, int):
        return frozenset(prime_factors(x))
    return frozenset(prime_factors(lcm(*(int(o) for o in x), 1)))
