"""CCZ/EA invariants used to prove inequivalence: GF(2) rank of the
graph-development incidence matrix, the classical Walsh spectrum for even
dimension, and field-wise invariant-bundle comparison.  Invariant
agreement never certifies equivalence.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .vbf import VBF, WalshSpectrum, _insert

MAX_RANK_SIDE_BITS = 16  # incidence matrix side 2^(n+m)


def gamma_rank(F: VBF) -> int:
    """GF(2) rank of the 2^(n+m)-square incidence matrix of the graph.

    Row (u, v) is the indicator of the graph translated by (u, v), i.e. the
    set of columns ((a + u) << m) | (F(a) + v).  So the row space is the
    span V of all translates of the graph indicator f, and its dimension is
    found without listing the 2^(n+m) rows: V_0 = <f>, and
    V_k = V_(k-1) + X^(e_k) V_(k-1), where X^(e_k) translates by the k-th
    unit vector.  Only the current basis is translated at each step.  On a
    row int, translating by s = 2^k moves the bits whose position has bit
    k clear up by s and the others down by s.
    """
    m = F.m
    bits = F.n + m
    if bits > MAX_RANK_SIDE_BITS:
        raise ValueError(
            f"matrix side 2^{bits} exceeds the 2^{MAX_RANK_SIDE_BITS} budget"
        )
    side = 1 << bits
    full = (1 << side) - 1
    f = 0
    for a, fa in enumerate(F.table):
        f |= 1 << ((a << m) | fa)
    pivots: list = [None] * side
    basis = [_insert(pivots, f)]
    for k in range(bits):
        s = 1 << k
        lo = full // ((1 << (2 * s)) - 1) * ((1 << s) - 1)
        hi = full ^ lo
        for v in list(basis):
            r = _insert(pivots, ((v & lo) << s) | ((v & hi) >> s))
            if r:
                basis.append(r)
    return len(basis)


def classical_spectrum(n: int) -> WalshSpectrum:
    """The classical Walsh spectrum of an APN function for even n >= 4."""
    if n % 2 != 0 or n < 4:
        raise ValueError(f"the closed form requires even dimension n >= 4, got {n}")
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


def is_classical(ws: WalshSpectrum, n: int) -> bool:
    """Whether the absolute values of the spectrum ws are those of the
    classical spectrum of dimension n (even n >= 4)."""
    return ws.magnitudes() == classical_spectrum(n).magnitudes()


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
