"""Exact effective resistances, resistance matrices, and resistance spectra.

All values are exact rationals (fractions.Fraction). The one exact engine is
reduced_adjugate: the bordered integer adjugate of the Laplacian minor
without the last vertex, grown one leading block at a time over Python
integers. Every resistance, unit or weighted, is read from the
ResistanceMatrix built from it: integer numerators over one shared
denominator, the spanning-tree count, which the lemma checks compare. The
one spectrum path, _spectrum_runs, sorts the numerators with one gcd per
distinct value; spectrum_json writes its runs as text and
resistance_spectrum builds one Fraction per run. spectrum_fingerprint
digests the same sorted numerators over their least common denominator
into 64 bits, equal for equal spectra. graph_fingerprint gives a graph the
same 64 bits from the numerators read straight off the adjugate, with no
matrix built; the spectrum index groups by it before it confirms any
shared fingerprint with exact keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from hashlib import blake2b
from itertools import combinations
from math import gcd
from operator import mul

from .graphs import Graph, GraphError


class DisconnectedError(GraphError):
    """Effective resistance of a disconnected graph is infinite."""


# ---------------------------------------------------------------------------
# rational serialization ("num/den" in lowest terms, "1" when den == 1)

def _ratio_text(num: int, den: int) -> str:
    """The one text rule for num/den in lowest terms with den > 0."""
    return str(num) if den == 1 else f"{num}/{den}"


def format_rational(q: Fraction) -> str:
    return _ratio_text(q.numerator, q.denominator)


def _runs_json(runs) -> str:
    """Compact JSON [["num/den", mult], ...] of (num, den, mult) runs."""
    return "[" + ",".join([f'["{_ratio_text(p, q)}",{m}]' for p, q, m in runs]) + "]"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# integer linear algebra

def laplacian(g: Graph) -> list[list[int]]:
    """Combinatorial Laplacian L = D - A as a dense integer matrix, read from
    the packed triangle g.bits one column (a vertex's lower neighbours) at a time."""
    n, bits = g.order, g.bits
    L = [[0] * n for _ in range(n)]
    for j in range(1, n):
        low = bits & ((1 << j) - 1)
        bits >>= j
        if low:
            Lj = L[j]
            Lj[j] = low.bit_count()
            while low:
                b = low & -low
                i = b.bit_length() - 1
                Lj[i] = L[i][j] = -1
                L[i][i] += 1
                low ^= b
    return L


def reduced_adjugate(L: list[list[int]]) -> tuple[list[list[int]], int]:
    """Adjugate and determinant of an integer Laplacian without its last row/column.

    Bordering grows the adjugate C and determinant d of the leading k x k
    block A_k of the minor, from the empty block (d = 1). With b = L[k][:k],
    c = L[k][k] and w = C b, the Schur complement c - b^T A_k^-1 b of A_k
    gives new = det A_{k+1} = c d - b^T w and adj A_{k+1} =
    [[(new C + w w^T) / d, -w], [-w^T, d]]. Each division is exact, because
    the adjugate of an integer matrix is an integer matrix. The last d is
    the (weighted) spanning-tree count.

    This is the connectivity check of every resistance function. A Laplacian
    minor is positive semidefinite, and positive definite exactly when the
    network is connected. Every leading block of a positive definite matrix
    is positive definite, so a connected network never gives new <= 0. A
    disconnected one has a singular minor, whose leading determinants are
    >= 0 with the last one 0: a first new <= 0 exists, and every d divided
    by before it is positive. DisconnectedError is raised there.
    """
    C: list[list[int]] = []
    d = 1
    for k in range(len(L) - 1):
        row = L[k]
        w = [0] * k
        for j in range(k):  # w = C b over the nonzeros of b; C is symmetric
            b = row[j]
            if b:
                w = [a + b * x for a, x in zip(w, C[j])]
        new = row[k] * d - sum(map(mul, row, w))
        if new <= 0:
            raise DisconnectedError("infinite resistance: graph is disconnected")
        for i in range(k):  # the upper triangle, mirrored
            Ci = C[i]
            wi = w[i]
            for j in range(i, k):
                C[j][i] = Ci[j] = (new * Ci[j] + wi * w[j]) // d
            Ci.append(-wi)
        C.append([-x for x in w] + [d])
        d = new
    return C, d


def resistance_rows(L: list[list[int]], scale: int = 1) -> list[list[Fraction]]:
    """All-pairs resistances of the integer Laplacian L, each multiplied by scale."""
    rm = laplacian_resistance_matrix(L)
    zero = Fraction(0)
    rows = [[zero] * rm.order for _ in range(rm.order)]
    for u, v in combinations(range(rm.order), 2):
        rows[u][v] = rows[v][u] = Fraction(scale * rm.nums[u][v], rm.det)
    return rows


def spanning_tree_count(g: Graph) -> int:
    """Matrix-tree determinant; 0 exactly when the graph is disconnected."""
    try:
        return reduced_adjugate(laplacian(g))[1]
    except DisconnectedError:
        return 0


def resistance(g: Graph, u: int, v: int) -> Fraction:
    """Effective resistance between two distinct vertices."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise GraphError("resistance requires two distinct vertices")
    return laplacian_resistance_matrix(laplacian(g)).value(u, v)


@dataclass(frozen=True)
class ResistanceMatrix:
    """Symmetric all-pairs resistance table with zero diagonal.

    Every entry shares the denominator det > 0: R(u, v) = nums[u][v] / det.
    Exact comparisons stay in integers (scale both sides by det); rows,
    value and pairs give the Fractions.
    """

    order: int
    nums: tuple[tuple[int, ...], ...]
    det: int

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.det) for x in row) for row in self.nums)

    def value(self, u: int, v: int) -> Fraction:
        return Fraction(self.nums[u][v], self.det)

    def pairs(self):
        for u, v in combinations(range(self.order), 2):
            yield u, v, self.value(u, v)


def resistance_matrix(g: Graph) -> ResistanceMatrix:
    """All-pairs resistance numerators over one adjugate and its determinant."""
    return laplacian_resistance_matrix(laplacian(g))


def laplacian_resistance_matrix(L: list[list[int]]) -> ResistanceMatrix:
    """resistance_matrix of the integer Laplacian L: det * R(u, v) = a_uu + a_vv - 2 a_uv."""
    adj, det = reduced_adjugate(L)
    diag = [row[i] for i, row in enumerate(adj)]
    nums = [(*[du + dv - 2 * a for dv, a in zip(diag, row)], du)
            for du, row in zip(diag, adj)]
    nums.append((*diag, 0))  # the deleted last vertex is ground
    return ResistanceMatrix(len(L), tuple(nums), det)


def _pair_numerators(adj: list[list[int]]) -> list[int]:
    """det * R(u, v) for every pair u < v, in combinations order, read from
    reduced_adjugate's adjugate as laplacian_resistance_matrix reads it: the
    last vertex is ground, so its pairs read a_uu alone."""
    diag = [row[i] for i, row in enumerate(adj)]
    nums = []
    for u, row in enumerate(adj):
        du = diag[u]
        nums += [du + dv - 2 * a for dv, a in zip(diag[u + 1:], row[u + 1:])]
        nums.append(du)
    return nums


@dataclass(frozen=True)
class ResistanceSpectrum:
    """Sorted multiset of pairwise resistances, run-length encoded."""

    entries: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        values = [v for v, _ in self.entries]
        if values != sorted(values) or len(set(values)) != len(values):
            raise ValueError("spectrum values must be strictly increasing")
        if any(m < 1 for _, m in self.entries):
            raise ValueError("multiplicities must be positive")

    @classmethod
    def from_values(cls, values) -> "ResistanceSpectrum":
        counts: dict[Fraction, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return cls(tuple(sorted(counts.items())))

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def max_value(self) -> Fraction:
        return self.entries[-1][0]

    def to_json(self) -> str:
        return _runs_json((v.numerator, v.denominator, m) for v, m in self.entries)

    @classmethod
    def from_json(cls, text: str) -> "ResistanceSpectrum":
        payload = json.loads(text)
        return cls(tuple((parse_rational(v), int(m)) for v, m in payload))

    def __str__(self) -> str:
        return self.to_json()


def resistance_spectrum(g: Graph) -> ResistanceSpectrum:
    runs = _spectrum_runs(resistance_matrix(g))
    return ResistanceSpectrum(tuple((Fraction(p, q), m) for p, q, m in runs))


def _sorted_numerators(rm: ResistanceMatrix) -> list[int]:
    """The numerators of the upper triangle of rm.nums, ascending."""
    nums = []
    for u, row in enumerate(rm.nums, 1):
        nums += row[u:]
    nums.sort()
    return nums


def _spectrum_runs(rm: ResistanceMatrix) -> list[tuple[int, int, int]]:
    """Ascending (num, den, mult) runs of the spectrum, each num/den in lowest terms.

    Every pair shares the denominator det > 0, so sorting the integer
    numerators of the upper triangle sorts the resistances, and each
    distinct value needs one gcd. This is the only place that turns a
    resistance matrix into a spectrum.
    """
    det = rm.det
    nums = _sorted_numerators(rm)
    runs = []
    start = 0
    for i in range(1, len(nums) + 1):
        if i == len(nums) or nums[i] != nums[start]:
            d = gcd(nums[start], det)
            runs.append((nums[start] // d, det // d, i - start))
            start = i
    return runs


def spectrum_json(g: Graph) -> str:
    """resistance_spectrum(g).to_json(), written from the integer runs.

    This is the exact key that confirms a group of the spectrum index.
    """
    return _runs_json(_spectrum_runs(resistance_matrix(g)))


def spectrum_fingerprint(rm: ResistanceMatrix) -> int:
    """64-bit blake2b digest of the spectrum's canonical integer form.

    With N the sorted upper-triangle numerators and g = gcd(det, *N), the
    digest is taken of the text "D:M1,M2,..." with D = det/g and Mi = Ni/g.
    D is the least common denominator of the values Mi/D: if k*Mi/D is an
    integer for every i, then D divides k*Mi and k*D, so it divides
    k*gcd(D, M1, M2, ...) = k. So D, and the sorted Mi = D * value, depend on
    the spectrum alone, and equal spectra give equal fingerprints. Unequal
    spectra may share one; the spectrum index settles every shared
    fingerprint with exact keys, so no exact result rests on the digest.
    """
    return _fingerprint(rm.det, _sorted_numerators(rm))


def graph_fingerprint(g: Graph) -> int:
    """spectrum_fingerprint(resistance_matrix(g)), with the pair numerators
    read straight from the adjugate and no matrix built."""
    adj, det = reduced_adjugate(laplacian(g))
    nums = _pair_numerators(adj)
    nums.sort()
    return _fingerprint(det, nums)


def _fingerprint(det: int, nums: list[int]) -> int:
    """The digest of the text "D:M1,M2,..." of the ascending pair numerators nums over det."""
    g = gcd(det, *nums)
    text = f"{det // g}:" + ",".join([str(x // g) for x in nums])
    return int.from_bytes(blake2b(text.encode("ascii"), digest_size=8).digest(), "big")


def resistance_diameter(g: Graph) -> Fraction:
    if g.order == 1:
        raise GraphError("resistance diameter needs at least one vertex pair")
    return resistance_spectrum(g).max_value


def kmn_spectrum_closed_form(m: int, n: int) -> ResistanceSpectrum:
    """Resistance spectrum of K_{m,n} without touching the graph.

    Same-part pairs in the size-n part see 2/m, cross pairs see
    1/m + 1/n - 1/(mn), same-part pairs in the size-m part see 2/n.
    Equal values coalesce (for m=2, 2/m collides with the cross term at
    n=3 and with nothing else; coalescing handles every such case).
    """
    if m < 1 or n < 1:
        raise GraphError(f"both part sizes must be >= 1, got ({m},{n})")
    counts: dict[Fraction, int] = {}
    for value, mult in (
        (Fraction(2, m), n * (n - 1) // 2),
        (Fraction(1, m) + Fraction(1, n) - Fraction(1, m * n), m * n),
        (Fraction(2, n), m * (m - 1) // 2),
    ):
        if mult:
            counts[value] = counts.get(value, 0) + mult
    return ResistanceSpectrum(tuple(sorted(counts.items())))
