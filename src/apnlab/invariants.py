"""CCZ/EA invariants used to prove inequivalence: GF(2) rank of the
graph-development incidence matrix, the classical Walsh spectrum for even
dimension, and field-wise invariant-bundle comparison.  Invariant
agreement never certifies equivalence.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from .vbf import VBF, WalshSpectrum

MAX_RANK_SIDE_BITS = 16  # incidence matrix side 2^(n+m)


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of rows given as bitmask ints."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            b = row.bit_length() - 1
            p = pivots.get(b)
            if p is None:
                pivots[b] = row
                break
            row ^= p
    return len(pivots)


def _incidence_rows(F: VBF):
    """Rows of the incidence matrix: row (u, v) has a 1 at column (a, b)
    iff F(a + u) = b + v, i.e. the (u, v)-translate of the graph."""
    n, m = F.n, F.m
    words = 1 << (n + m - 3) if n + m >= 3 else 1
    graph = [(a << m) | F.table[a] for a in range(1 << n)]
    for u in range(1 << n):
        shifted = [((a ^ u) << m) | fa for (a, fa) in enumerate(F.table)]
        for v in range(1 << m):
            buf = bytearray(words)
            for pos in shifted:
                p = pos ^ v
                buf[p >> 3] |= 1 << (p & 7)
            yield int.from_bytes(buf, "little")


def gamma_rank(F: VBF) -> int:
    """GF(2) rank of the 2^(n+m)-square incidence matrix of the graph."""
    if F.n + F.m > MAX_RANK_SIDE_BITS:
        raise ValueError(
            f"matrix side 2^{F.n + F.m} exceeds the 2^{MAX_RANK_SIDE_BITS} budget"
        )
    return gf2_rank(_incidence_rows(F))


def classical_spectrum(n: int) -> WalshSpectrum:
    """The classical Walsh spectrum of an APN function for even n."""
    if n % 2 != 0:
        raise ValueError("the closed form requires even dimension")
    q = 1 << n
    counts: Counter = Counter()
    counts[0] = (q // 4) * (q - 1)
    hi = 1 << ((n + 2) // 2)
    lo = 1 << (n // 2)
    for sign in (1, -1):
        c_hi = (q - 1) * ((1 << (n - 3)) + sign * (1 << ((n - 4) // 2)))
        if c_hi % 3:
            raise AssertionError("classical count not divisible by 3")
        counts[sign * hi] = c_hi // 3
        c_lo = 2 * (q - 1) * ((1 << (n - 1)) + sign * (1 << (n // 2 - 1)))
        if c_lo % 3:
            raise AssertionError("classical count not divisible by 3")
        counts[sign * lo] = c_lo // 3
    return WalshSpectrum.from_counter(counts)


def is_classical(F: VBF) -> bool:
    if F.n != F.m or F.n % 2 != 0:
        raise ValueError("classical spectra are defined for (n, n), even n")
    return F.walsh_spectrum().magnitudes() == classical_spectrum(F.n).magnitudes()


@dataclass(frozen=True)
class InvariantBundle:
    uniformity: int
    gamma_rank: int
    walsh: WalshSpectrum
    degree: int


def invariant_bundle(F: VBF) -> InvariantBundle:
    return InvariantBundle(
        uniformity=F.uniformity(),
        gamma_rank=gamma_rank(F),
        walsh=F.walsh_spectrum(),
        degree=F.algebraic_degree(),
    )


@dataclass(frozen=True)
class DistinguishResult:
    """ProvablyInequivalent when `invariant` names the differing field;
    Undetermined (invariant None) otherwise.  Never claims equivalence."""

    invariant: Optional[str]

    @property
    def provably_inequivalent(self) -> bool:
        return self.invariant is not None


def distinguish(F: VBF, G: VBF,
                bf: Optional[InvariantBundle] = None,
                bg: Optional[InvariantBundle] = None) -> DistinguishResult:
    """Compare CCZ invariants (Gamma-rank, multiset of absolute Walsh
    values) and, for degrees >= 2, the EA-invariant algebraic degree."""
    bf = bf or invariant_bundle(F)
    bg = bg or invariant_bundle(G)
    if bf.gamma_rank != bg.gamma_rank:
        return DistinguishResult("gamma_rank")
    if bf.walsh.magnitudes() != bg.walsh.magnitudes():
        return DistinguishResult("walsh_spectrum")
    if bf.degree >= 2 and bg.degree >= 2 and bf.degree != bg.degree:
        return DistinguishResult("algebraic_degree")
    return DistinguishResult(None)
