"""(n,m)-functions as full lookup tables, plus their differential and
spectral analysis: DDT and the APN test, Walsh spectra, algebraic degree,
the symmetric form B_F, the four-sum value set D_F*, and linear
projections with the kernel-intersection APN criterion.

Three numpy kernels carry the whole-table work.  `_derivative_counts`
yields blocks of DDT rows, for the APN test, the uniformity and the DDT.
`_wht_rows` is a Walsh-Hadamard transform, for the Walsh spectrum and
the flat counts.  `_flat_counts` counts the F-sums over the 2-flats
{x, x+t, y, y+t} with x, t and y in three point sets, for D_F* and the
admissible coset sums.  The GF(2) helpers `_insert`, `gf2_rank` and
`_xor_span` serve the other modules too.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .field import FieldSpec


@dataclass(frozen=True)
class LinearMap:
    """An F_2-linear map given by the images of the input basis bits.

    When the map acts on a field of degree n_in == n_out, it may carry the
    coefficient vector (a_0, ..., a_{n-1}) of the linearized polynomial
    sum a_i x^(2^i) it evaluates.
    """

    n_in: int
    n_out: int
    images: tuple[int, ...]
    spec: Optional[FieldSpec] = None
    coeffs: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if len(self.images) != self.n_in:
            raise ValueError("need one image per input basis bit")
        top = 1 << self.n_out
        if any(not 0 <= v < top for v in self.images):
            raise ValueError("image out of range")

    @classmethod
    def zero(cls, n_in: int, n_out: int) -> "LinearMap":
        return cls(n_in, n_out, (0,) * n_in)

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_linearized(cls, spec: FieldSpec, coeffs: Sequence[int]) -> "LinearMap":
        """Map x -> sum coeffs[i] * x^(2^i) on the field of spec."""
        coeffs = tuple(coeffs) + (0,) * (spec.n - len(coeffs))
        if len(coeffs) != spec.n:
            raise ValueError("too many linearized coefficients")
        images = []
        for i in range(spec.n):
            x = 1 << i
            acc = 0
            for c in coeffs:
                acc ^= spec.mul(c, x)
                x = spec.mul(x, x)
            images.append(acc)
        return cls(spec.n, spec.n, tuple(images), spec=spec, coeffs=coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        i = 0
        while x:
            if x & 1:
                acc ^= self.images[i]
            x >>= 1
            i += 1
        return acc

    def table(self) -> tuple[int, ...]:
        return tuple(_xor_span(self.images).tolist())

    def kernel(self) -> list[int]:
        return np.flatnonzero(_xor_span(self.images) == 0).tolist()

    def image_rank(self) -> int:
        return gf2_rank(self.images)

    def is_injective(self) -> bool:
        return self.image_rank() == self.n_in

    def is_surjective(self) -> bool:
        return self.image_rank() == self.n_out


@dataclass(frozen=True)
class AffineMap:
    """x -> linear(x) + const."""

    linear: LinearMap
    const: int = 0

    def __call__(self, x: int) -> int:
        return self.linear(x) ^ self.const

    @property
    def n_in(self) -> int:
        return self.linear.n_in

    @property
    def n_out(self) -> int:
        return self.linear.n_out

    def is_bijection(self) -> bool:
        return self.n_in == self.n_out and self.linear.is_injective()


def projection_killing(m: int, k: int) -> LinearMap:
    """Surjective map F_2^m -> F_2^(m-1) with kernel {0, k}, k != 0."""
    if not 0 < k < (1 << m):
        raise ValueError("kernel generator out of range")
    j = (k & -k).bit_length() - 1  # lowest set bit of k
    images = []
    for i in range(m):
        # clear coordinate j via x ^= bit_j(x) * k, then drop it
        v = (1 << i) if i != j else k ^ (1 << j)
        low = v & ((1 << j) - 1)
        high = v >> (j + 1)
        images.append(low | (high << j))
    return LinearMap(m, m - 1, tuple(images))


@dataclass(frozen=True)
class WalshSpectrum:
    """Multiset of Walsh values over all (a, b) with b != 0."""

    values: tuple[tuple[int, int], ...]  # sorted (value, count) pairs

    @classmethod
    def from_counter(cls, c: Counter) -> "WalshSpectrum":
        return cls(tuple(sorted(c.items())))

    def counter(self) -> Counter:
        return Counter(dict(self.values))

    @property
    def total(self) -> int:
        return sum(c for _, c in self.values)

    def value_set(self) -> frozenset[int]:
        return frozenset(v for v, c in self.values if c)

    def magnitudes(self) -> "WalshSpectrum":
        """The multiset of |W(a, b)|: the signs depend on the
        representative, the absolute values are EA/CCZ-invariant."""
        c: Counter = Counter()
        for v, k in self.values:
            c[abs(v)] += k
        return WalshSpectrum.from_counter(c)


@dataclass(frozen=True)
class VBF:
    """An (n,m)-function as a lookup table of 2^n values below 2^m."""

    n: int
    m: int
    table: tuple[int, ...]
    spec: Optional[FieldSpec] = None

    def __post_init__(self):
        if len(self.table) != 1 << self.n:
            raise ValueError(f"table must have 2^{self.n} entries, got {len(self.table)}")
        top = 1 << self.m
        if any(not 0 <= v < top for v in self.table):
            raise ValueError(f"table entry out of range for output dimension {self.m}")
        if self.spec is not None and self.spec.n != self.n:
            raise ValueError("bound field degree does not match input dimension")

    def __call__(self, x: int) -> int:
        return self.table[x]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.int64)

    # -- the symmetric form ---------------------------------------------

    def bform(self, x: int, t: int) -> int:
        """B_F(x, t) = F(x+t) + F(x) + F(t) + F(0)."""
        T = self.table
        return T[x ^ t] ^ T[x] ^ T[t] ^ T[0]

    # -- differential analysis ------------------------------------------

    def ddt(self) -> np.ndarray:
        """The (2^n, 2^m) table of #{x : F(x + a) + F(x) = b}."""
        size = 1 << self.n
        rows = np.zeros((size, 1 << self.m), dtype=np.int64)
        rows[0, 0] = size
        for a0, c in _derivative_counts(self.as_array(), self.n, self.m, _BLOCK):
            rows[a0:a0 + len(c)] = c
        return rows

    def uniformity(self) -> int:
        """The largest DDT entry off a = 0, read block by block; 0 when
        n = 0, where there is no nonzero direction."""
        blocks = _derivative_counts(self.as_array(), self.n, self.m, _BLOCK)
        return max((int(c.max()) for _, c in blocks), default=0)

    def is_apn(self) -> bool:
        """Every derivative takes each value at most twice.  Stops at the
        first block of directions with a count above 2; the first block
        holds one direction, so most non-APN tables exit after one
        derivative."""
        T = self.as_array()
        return all(c.max() <= 2 for _, c in _derivative_counts(T, self.n, self.m, 1))

    # -- Walsh transform -------------------------------------------------

    def walsh_spectrum(self) -> WalshSpectrum:
        """Multiset of W(a, b) over all a and all b != 0.

        This is one fast Walsh-Hadamard transform of the 2^n x 2^m graph
        indicator, with the bit dot product pairing.  Row x of the
        indicator is one-hot at F(x), so its transform along y is
        S[x, b] = (-1)^(b . F(x)), and only the n passes along x remain.
        They run on blocks of 2^lo columns, about 2 _BLOCK int32 values
        (the bytes of one int64 block of the other kernels) each: for
        b = h 2^lo + c with c < 2^lo, S[x, b] is the product of the sign
        spans of F(x) over its low lo bits (at c) and its other bits (at h).
        Transforming the whole S at n = 8 freed arrays of 256 KB that
        glibc handed back and refaulted on every call.  With a bound field,
        Tr(b*y) = M_b . y for a mask M_b and b -> M_b is a bijection
        (likewise for a), so the multiset is the same under the trace
        pairing W(a, b) = sum_x (-1)^(Tr(b F(x)) + Tr(a x)).
        """
        size = 1 << self.n
        T = self.as_array()
        lo = min(self.m, max(0, (2 * _BLOCK >> self.n).bit_length() - 1))
        bits = [(T >> j) & 1 for j in range(self.m)]
        low = 1 - 2 * _xor_span(bits[:lo], (size,), np.int32)
        counts = np.zeros(2 * size + 1, dtype=np.int64)
        for high in _xor_span(bits[lo:], (size,), np.int32).T:
            w = _wht_rows(low * (1 - 2 * high)[:, None])
            w += size
            counts += np.bincount(w.ravel(), minlength=2 * size + 1)
        counts[[2 * size, size]] -= [1, size - 1]  # b = 0: W(0, 0) = 2^n, else 0
        vals = np.flatnonzero(counts)
        return WalshSpectrum(tuple(
            (int(v) - size, int(c)) for v, c in zip(vals, counts[vals])))

    # -- algebraic degree -------------------------------------------------

    def anf(self) -> tuple[int, ...]:
        """Algebraic normal form by the Moebius transform, all output
        coordinates at once."""
        a = list(self.table)
        size = 1 << self.n
        for i in range(self.n):
            bit = 1 << i
            for x in range(size):
                if x & bit:
                    a[x] ^= a[x ^ bit]
        return tuple(a)

    def algebraic_degree(self) -> int:
        return max(
            (x.bit_count() for x, c in enumerate(self.anf()) if c),
            default=0,
        )

    def is_quadratic(self) -> bool:
        """Degree at most 2; affine functions count as degenerate quadratics."""
        return self.algebraic_degree() <= 2

    # -- four-sum value set ----------------------------------------------

    def dstar_set(self) -> frozenset[int]:
        """D_F* = {F(x) + F(x+t) + F(y) + F(y+t)} over the 2-flats
        {x, x+t, y, y+t} (four distinct points), for any F.

        With C_a the DDT row of a direction a != 0, the XOR-autocorrelation
        (C_a * C_a)(v) counts the pairs (x, y) with D_aF(x) + D_aF(y) = v.
        The pairs with y in {x, x+a} add 2^(n+1) at v = 0 and nothing
        elsewhere, so v is in D_F* iff
        sum_a (C_a * C_a)(v) - [v = 0] 2^(n+1) (2^n - 1) > 0.  The sum is
        one Walsh-Hadamard transform of each block of rows, squared and
        summed over a, then one inverse transform of length 2^m.  Its int64
        totals are at most 2^(3n+m), exact while 3n + m <= 62; larger
        shapes raise ValueError.
        """
        n, xs = self.n, np.arange(1 << self.n)
        auto = _flat_counts(self.as_array(), self.m, xs, xs[1:], xs) >> self.m
        auto[0] -= ((1 << n) - 1) << (n + 1)
        return frozenset(np.flatnonzero(auto > 0).tolist())


# A block of derivatives gathers at most about this many values; larger
# blocks fall out of cache and made the n = 10 DDT slower.
_BLOCK = 1 << 14


def _derivative_counts(T: np.ndarray, n: int, m: int, first: int):
    """Yield (a0, C) for blocks of the directions a = 1, ..., 2^n - 1,
    where C[a - a0, b] = #{x : T[x + a] + T[x] = b}.  The first block
    holds `first` directions and each next block twice as many, up to
    about _BLOCK gathered values.  A block is one gather of
    d[a, x] = T[a + x] + T[x] and one bincount of ((a - a0) << m) | d."""
    size = 1 << n
    xs = np.arange(size)
    cap = max(1, _BLOCK >> max(n, m))
    a0, k = 1, min(first, cap)
    while a0 < size:
        a = np.arange(a0, min(a0 + k, size))
        keys = ((a - a0)[:, None] << m) | (T[a[:, None] ^ xs] ^ T)
        yield a0, np.bincount(keys.ravel(), minlength=a.size << m).reshape(a.size, 1 << m)
        a0 += a.size
        k = min(2 * k, cap)


def _wht_rows(v: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform along axis 0 of a 2-D integer
    array, in place."""
    size, cols = v.shape
    h = 1
    while h < size:
        v = v.reshape(-1, 2, h, cols)
        left = v[:, 0].copy()
        v[:, 0] += v[:, 1]
        v[:, 1] = left - v[:, 1]
        h *= 2
    return v.reshape(size, cols)


def _flat_counts(T: np.ndarray, m: int, left: np.ndarray, dirs: np.ndarray,
                 right: np.ndarray) -> np.ndarray:
    """2^m N(v) for every v below 2^m, where N(v) counts the (x, t, y) in
    left x dirs x right with D_tF(x) + D_tF(y) = v, for the table T of F:
    N = sum_t (L_t * R_t) for the counts L_t and R_t of D_tF over left and
    right.  Each block of about _BLOCK gathered values is one gather, one
    bincount and one Walsh-Hadamard transform of the count rows (one row
    per t, squared, when `left is right`).  With at most 2^p points in a
    set the int64 totals are at most 2^(3p+m); 3p + m > 62 raises
    ValueError before any gather."""
    n = T.size.bit_length() - 1
    p = (max(len(left), len(dirs), len(right)) - 1).bit_length()
    if 3 * p + m > 62:
        raise ValueError(f"flat counts need 3n + m <= {62 + 3 * (n - p)} bits, "
                         f"got {3 * n + m}")
    k = max(1, _BLOCK >> max(n, m))
    if left is right:
        pts, per, side = left, 1, 0
    else:
        pts, per = np.concatenate([left, right]), 2
        side = np.repeat([0, 1 << m], [len(left), len(right)])
    rows = (per * np.arange(k)[:, None] << m) + side  # L_t, then R_t if apart
    Tp = T[pts]
    power = np.zeros(1 << m, dtype=np.int64)
    for j in range(0, len(dirs), k):
        t = dirs[j:j + k, None]
        c = np.bincount((rows[:t.size] | (T[t ^ pts] ^ Tp)).ravel(),
                        minlength=per * t.size << m)
        # rebinding c frees the raw counts before the transform; holding
        # them made D* at n = 8 ~8 % slower (2-vCPU x86, glibc malloc)
        c = np.ascontiguousarray(c.reshape(per * t.size, 1 << m).T)
        hat = _wht_rows(c)
        power += (hat ** 2 if per == 1 else hat[:, 0::2] * hat[:, 1::2]).sum(axis=1)
    return _wht_rows(power[:, None])[:, 0]


def _insert(pivots: list, row: int) -> int:
    """Reduce `row` by the table of rows keyed by their top bit; store and
    return the remainder if it is nonzero.  Returns 0 when `row` is in the
    span already."""
    while row:
        b = row.bit_length() - 1
        p = pivots[b]
        if p is None:
            pivots[b] = row
            return row
        row ^= p
    return 0


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of rows given as bitmask ints."""
    rows = list(rows)
    pivots: list = [None] * max((r.bit_length() for r in rows), default=0)
    return sum(1 for r in rows if _insert(pivots, r))


def _xor_span(gens, lead: tuple = (), dtype=np.int64) -> np.ndarray:
    """out[..., c] = XOR of gens[i] over the set bits i of c, built by
    doubling; each generator may carry leading batch axes `lead`."""
    out = np.zeros(lead + (1 << len(gens),), dtype=dtype)
    for i, g in enumerate(gens):
        g = np.asarray(g, dtype=dtype)[..., None]
        out[..., 1 << i:2 << i] = out[..., :1 << i] ^ g
    return out


# -- constructors ---------------------------------------------------------

def from_univariate(spec: FieldSpec, terms: Sequence[tuple[int, int]]) -> VBF:
    """F(x) = sum of c * x^d over the (c, d) terms, evaluated pointwise."""
    top = spec.order
    for c, d in terms:
        if not 0 <= d <= top:
            raise ValueError(f"exponent {d} out of range [0, {top}]")
        if not 0 <= c < spec.size:
            raise ValueError(f"coefficient 0x{c:x} out of range")
    table = []
    for x in range(spec.size):
        acc = 0
        for c, d in terms:
            acc ^= spec.mul(c, spec.pow(x, d))
        table.append(acc)
    return VBF(spec.n, spec.n, tuple(table), spec=spec)


def power_function(spec: FieldSpec, d: int) -> VBF:
    return from_univariate(spec, [(1, d)])


def inverse_function(spec: FieldSpec) -> VBF:
    """x^(2^n - 2), the inverse function with 0 -> 0."""
    return power_function(spec, spec.size - 2)


# -- projections ----------------------------------------------------------

def project_is_apn(F: VBF, pi: LinearMap) -> bool:
    """APN-ness of pi o F without the projected DDT: pi o F is APN iff no
    F-sum over a 2-flat lies in ker(pi).  ker(pi) holds 0, and 0 is in
    D_F* iff F is not APN, so this holds for any F."""
    if pi.n_in != F.m:
        raise ValueError("projection domain does not match output dimension")
    if not pi.is_surjective():
        raise ValueError("projection must be surjective")
    return F.dstar_set().isdisjoint(pi.kernel())


# -- batch helpers for searches -------------------------------------------

def is_apn_batch(tables: np.ndarray, n: int) -> np.ndarray:
    """Vectorized APN test for a stack of tables, shape (B, 2^n)."""
    size = 1 << n
    if tables.ndim != 2 or tables.shape[1] != size:
        raise ValueError("tables must have shape (B, 2^n)")
    xs = np.arange(size)
    ok = np.ones(tables.shape[0], dtype=bool)
    for a in range(1, size):
        idx = np.nonzero(ok)[0]
        if idx.size == 0:
            break
        t = tables[idx]
        d = np.sort(t[:, xs ^ a] ^ t, axis=1)
        triple = (d[:, 2:] == d[:, :-2]).any(axis=1)
        ok[idx[triple]] = False
    return ok
