"""Secondary constructions of APN functions and their iff-criteria:
switching, decomposition into differentially 4-uniform parts, inverse-based
(n, n+1) extension, hyperplane concatenation, linear modification on the
trace-zero hyperplane (kernel and exponential-sum criteria), H-equivalence
witnesses, the thirteen dimension-6 representatives, and constant
modification on the cosets of a codimension-2 subspace.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .field import FieldSpec
from .vbf import (
    VBF, AffineMap, LinearMap, _flat_counts, _insert, _xor_span, gf2_rank,
    inverse_function, power_function,
)


# -- (f, g) pairs in F_2^m (+) F_2 ----------------------------------------
# Pair values are encoded as (f_value << 1) | g_bit: the Boolean
# coordinate is the last output bit.

def pair_lift(f: VBF, g: VBF) -> VBF:
    if g.m != 1 or g.n != f.n:
        raise ValueError("g must be a Boolean function on the same domain")
    table = tuple((fv << 1) | gv for fv, gv in zip(f.table, g.table))
    return VBF(f.n, f.m + 1, table)


@dataclass(frozen=True)
class SwitchSpec:
    """Base (n, m+1)-function split as (f, g) plus a direction u."""

    f: VBF
    g: VBF
    u: int

    def __post_init__(self):
        if self.g.m != 1 or self.g.n != self.f.n:
            raise ValueError("g must be a Boolean function on the same domain")
        if not 0 < self.u < (1 << self.f.m):
            raise ValueError("direction u must be a nonzero m-bit value")

    @cached_property
    def combined(self) -> VBF:
        return pair_lift(self.f, self.g)


def switch(sw: SwitchSpec) -> tuple[VBF, bool]:
    """f + u*g together with the four-sum certificate; the certificate is
    true exactly when the switched function is APN."""
    if not sw.combined.is_apn():
        raise ValueError("the combined (n, m+1)-function must be APN")
    cert = ((sw.u << 1) | 1) not in sw.combined.dstar_set()
    table = tuple(fv ^ (sw.u if gv else 0) for fv, gv in zip(sw.f.table, sw.g.table))
    return VBF(sw.f.n, sw.f.m, table, spec=sw.f.spec), cert


@dataclass(frozen=True)
class Decomposition:
    f1: VBF
    u: int
    g: VBF
    uniformity: int


def _first_odd_sum(f: VBF, g: VBF) -> Optional[int]:
    """The smallest f-sum over a 2-flat whose g-sum is 1, or None."""
    return min((v >> 1 for v in pair_lift(f, g).dstar_set() if v & 1), default=None)


def decompose_to_4uniform(f: VBF, g: Optional[VBF] = None) -> Decomposition:
    """Express the APN function f as f_1 + u*g with f_1 differentially
    4-uniform, following the switching decomposition.

    When g is omitted, tries g(x) = Tr(c * f(x)) for c = 1, 2, ... and uses
    the first choice admitting a 2-flat with odd g-sum.  A supplied g whose
    four-sums are all even is rejected.  u is the smallest v with (v, 1) in
    D* of the pair (f, g), the f-sum of some 2-flat with odd g-sum; any
    such u gives f_1 uniformity 4.
    """
    if f.n != f.m:
        raise ValueError("decomposition is defined for (n, n)-functions")
    if not f.is_apn():
        raise ValueError("f must be APN")
    if g is None:
        if f.spec is None:
            raise ValueError("a bound field is needed to enumerate trace coordinates")
        spec = f.spec
        for c in range(1, spec.size):
            g = VBF(f.n, 1, tuple(spec.trace_absolute(spec.mul(c, v)) for v in f.table))
            u = _first_odd_sum(f, g)
            if u is not None:
                break
        else:  # pragma: no cover - impossible for APN f by Dillon's observation
            raise ValueError("no trace coordinate admits an odd four-sum")
    else:
        u = _first_odd_sum(f, g)
        if u is None:
            raise ValueError("all four-sums of g are even; supply another g")
    f1 = VBF(f.n, f.m, tuple(fv ^ (u if gv else 0) for fv, gv in zip(f.table, g.table)),
             spec=f.spec)
    delta = f1.uniformity()
    if delta not in (2, 4):
        raise AssertionError(f"decomposition produced uniformity {delta}")
    return Decomposition(f1, u, g, delta)


# -- the inverse function and its (n, n+1) lift ---------------------------

def nyberg_roots(spec: FieldSpec, a: int, b: int) -> list[int]:
    """Solutions of x^-1 + (x+a)^-1 = b with the 0 -> 0 convention."""
    if a == 0:
        raise ValueError("a must be nonzero")
    T = inverse_function(spec).table
    return [x for x in range(spec.size) if T[x] ^ T[x ^ a] == b]


def nyberg_root_count(spec: FieldSpec, a: int, b: int) -> int:
    """Predicted root count of x^-1 + (x+a)^-1 = b from the trace tests;
    even degree >= 4 only.  b = 0 is decided by direct enumeration."""
    if spec.n % 2 != 0 or spec.n < 4:
        raise ValueError("requires even degree >= 4")
    if a == 0:
        raise ValueError("a must be nonzero")
    if b == 0:
        return len(nyberg_roots(spec, a, b))
    ab = spec.mul(a, b)
    if ab == 1:
        return 4
    return 2 if spec.trace_absolute(spec.inv(ab)) == 0 else 0


def inverse_extension(spec: FieldSpec) -> VBF:
    """(x^-1, g(x)) as an APN (n, n+1)-function for even degree > 2.

    g sums to 1 over every multiplicative <w>-orbit {a, wa, w^2 a}:
    within the orbit of its smallest element a, g is 1 on w^2 a only.
    """
    if spec.n % 2 != 0 or spec.n <= 2:
        raise ValueError("requires even degree > 2")
    _, w, _ = spec.cube_roots_of_unity()
    g = [0] * spec.size
    seen = [False] * spec.size
    seen[0] = True
    for a in range(1, spec.size):
        if seen[a]:
            continue
        wa = spec.mul(w, a)
        w2a = spec.mul(w, wa)
        seen[a] = seen[wa] = seen[w2a] = True
        g[w2a] = 1
    f = inverse_function(spec)
    gv = VBF(spec.n, 1, tuple(g))
    return pair_lift(f, gv)


# -- concatenation on complementary hyperplanes ---------------------------
# F_2^(n-1) embeds as the low n-1 coordinates of F_2^n; e_0 is the last
# unit vector, so F(x) = f(x) and F(x + e_0) = g(x).

def concatenate(f: VBF, g: VBF) -> VBF:
    if (f.n, f.m) != (g.n, g.m):
        raise ValueError("f and g must have identical dimensions")
    return VBF(f.n + 1, f.m, f.table + g.table)


ConcatWitness = tuple[int, int, int]  # (x, y, a)


def concat_is_apn(f: VBF, g: VBF) -> tuple[bool, Optional[ConcatWitness]]:
    """Concatenation criterion: f and g APN, and no derivative value of f
    meets one of g at the same direction a.  Returns a witness (x, y, a)
    with f(x+a)+f(x)+g(y+a)+g(y) = 0 when the second condition fails."""
    if (f.n, f.m) != (g.n, g.m):
        raise ValueError("f and g must have identical dimensions")
    if not (f.is_apn() and g.is_apn()):
        return False, None
    size = 1 << f.n
    Tf, Tg = f.table, g.table
    for a in range(1, size):
        fd = {}
        for x in range(size):
            fd.setdefault(Tf[x ^ a] ^ Tf[x], x)
        for y in range(size):
            v = Tg[y ^ a] ^ Tg[y]
            if v in fd:
                return False, (fd[v], y, a)
    return True, None


def quadratic_concat_criterion(f: VBF, L: LinearMap, c: int) -> bool:
    """For quadratic APN f and g = f + L + c: the concatenation is APN iff
    x -> L(x) + B_f(x, A) is injective for every A."""
    if not f.is_quadratic():
        raise ValueError("f must be quadratic")
    if L.n_in != f.n or L.n_out != f.m:
        raise ValueError("L must map the domain of f into its codomain")
    size = 1 << f.n
    Ltab = L.table()
    for A in range(size):
        for x in range(1, size):
            if Ltab[x] ^ f.bform(x, A) == 0:
                return False
    return True


# -- linear modification on the trace-zero hyperplane ---------------------

@cache
def _trace_table(spec: FieldSpec) -> np.ndarray:
    """Tr(x) for every x: Tr is linear, the span of the trace-mask bits.
    Read-only, as every caller shares it."""
    tr = _xor_span([(spec.trace_mask >> i) & 1 for i in range(spec.n)])
    tr.flags.writeable = False
    return tr


def _trace_modify(T: np.ndarray, ltabs: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """F + Tr(x)L(x) from the table T of F and one or a stack of L tables."""
    return T ^ ltabs * _trace_table(spec)


def hyperplane_modify(F: VBF, L: LinearMap) -> VBF:
    """G(x) = F(x) + Tr(x) L(x)."""
    if F.spec is None:
        raise ValueError("F must carry a field for the trace")
    if L.n_in != F.n or L.n_out != F.m:
        raise ValueError("L dimensions do not match F")
    table = _trace_modify(F.as_array(), _xor_span(L.images), F.spec)
    return VBF(F.n, F.m, tuple(table.tolist()), spec=F.spec)


def check_quadratic_apn(F: VBF) -> None:
    """Raise ValueError unless F is a quadratic APN function on a field."""
    if F.spec is None:
        raise ValueError("F must carry a field for the trace")
    if not F.is_quadratic():
        raise ValueError("F must be quadratic")
    if not F.is_apn():
        raise ValueError("F must be APN")


def th31_witness(F: VBF, L: LinearMap, e0: Optional[int] = None, *,
                 checked: bool = False) -> Optional[tuple[int, int]]:
    """The first (a, x), a and x != 0 on the trace-zero hyperplane, with
    L(x) = B_F(x, a + e_0), in increasing order of a then x; None when the
    kernel criterion holds.  F quadratic APN.

    `checked=True` skips `check_quadratic_apn(F)`, for callers that ran it
    once for many maps L."""
    if not checked:
        check_quadratic_apn(F)
    spec = F.spec
    if e0 is None:
        e0 = spec.trace_one_element()
    elif spec.trace_absolute(e0) != 1:
        raise ValueError("e0 must have absolute trace 1")
    t0 = spec.trace_zero_elements()
    Ltab = [L(x) for x in t0]
    for a in t0:
        ae = a ^ e0
        for lx, x in zip(Ltab, t0):
            if x and lx ^ F.bform(x, ae) == 0:
                return a, x
    return None


def th31_criterion(F: VBF, L: LinearMap, e0: Optional[int] = None, *,
                   checked: bool = False) -> bool:
    """F + Tr*L is APN iff x -> L(x) + B_F(x, a + e_0) has trivial kernel
    on the trace-zero hyperplane for every trace-zero a; F quadratic APN.
    The failing (a, x) come from `th31_witness`."""
    return th31_witness(F, L, e0, checked=checked) is None


def exp_sum_condition(L: LinearMap, spec: FieldSpec) -> tuple[int, bool]:
    """Exponential-sum characterization of the APN-ness of x^3 + Tr(x)L(x):
    (lhs, lhs == 2^(n-1) - 1) for the lhs of `_exp_sum_lhs`."""
    if L.n_in != spec.n or L.n_out != spec.n:
        raise ValueError("L must be a map on the field")
    lhs = int(_exp_sum_lhs(spec, _xor_span(L.images)[None])[0])
    return lhs, lhs == (1 << (spec.n - 1)) - 1


def _exp_sum_lhs(spec: FieldSpec, ltabs: np.ndarray) -> np.ndarray:
    """The exponential sum of x^3 + Tr(x)L(x) for each row of a stack of
    L tables, exactly over the integers.  With y = x^2 + x over x not in
    {0, 1}, it is the sum of (-1)^Tr(u_x L(y)) minus half the (always even)
    sum of (-1)^Tr(v_x L(y)), where v_x = 1/y^3 and u_x = x^2 v_x."""
    y, masks, parity = _exp_sum_constants(spec)
    s1, s2 = (1 - 2 * parity[ltabs[:, None, y] & masks]).sum(axis=2).T
    if (s2 & 1).any():
        raise AssertionError("second exponential sum must be even")
    return s1 - s2 // 2


@cache
def _exp_sum_constants(spec: FieldSpec) -> tuple[np.ndarray, ...]:
    """The y of `_exp_sum_lhs`, the masks M_u and M_v with Tr(c w) =
    parity(M_c & w), and the parity table.  Tr(c w) is linear in w, so bit
    i of M_c is Tr(c alpha^i): n products per mask, on the log tables."""
    n, order = spec.n, spec.order
    exp, log = np.array(spec.antilog), np.array(spec.log)
    lx = log[2:]
    y = exp[2 * lx % order] ^ np.arange(2, spec.size)
    lv = -3 * log[y] % order
    lc = np.stack([(2 * lx + lv) % order, lv])[..., None] + log[1 << np.arange(n)]
    masks = (_trace_table(spec)[exp[lc % order]] << np.arange(n)).sum(axis=2)
    out = y, masks, _xor_span([1] * n)
    for a in out:
        a.flags.writeable = False  # shared by every caller
    return out


# -- H-equivalence ---------------------------------------------------------

@dataclass(frozen=True)
class HyperplaneSpec:
    """Affine hyperplane {x : a.x = beta} of F_2^n."""

    n: int
    a: int
    beta: int = 0

    def __post_init__(self):
        if not 0 < self.a < (1 << self.n):
            raise ValueError("defining functional must be nonzero")
        if self.beta not in (0, 1):
            raise ValueError("shift bit must be 0 or 1")

    @classmethod
    def trace_zero(cls, spec: FieldSpec) -> "HyperplaneSpec":
        return cls(spec.n, spec.trace_mask, 0)

    def contains(self, x: int) -> bool:
        return ((self.a & x).bit_count() & 1) == self.beta

    def members(self) -> list[int]:
        return [x for x in range(1 << self.n) if self.contains(x)]

    def complement(self) -> list[int]:
        return [x for x in range(1 << self.n) if not self.contains(x)]


def h_equivalence_witness(F: VBF, G: VBF, h: HyperplaneSpec) -> Optional[AffineMap]:
    """Affine map A with G = F on h and G = F + A off h, if one exists."""
    if (F.n, F.m) != (G.n, G.m) or h.n != F.n:
        raise ValueError("dimension mismatch")
    diff = [fv ^ gv for fv, gv in zip(F.table, G.table)]
    if any(diff[x] for x in h.members()):
        return None
    direction = HyperplaneSpec(h.n, h.a, 0).members()  # the linear hyperplane
    e = min(h.complement())
    const = diff[e]
    # fit the linear part M on a greedy basis of the direction space and
    # M(e) = 0, then verify pointwise on the complement coset
    pivots: list = [None] * F.n
    basis = [u for u in direction if _insert(pivots, u)]
    M = np.empty(1 << F.n, dtype=np.int64)
    M[_xor_span(basis + [e])] = _xor_span([diff[e ^ u] ^ const for u in basis] + [0])
    M = M.tolist()
    if any(diff[e ^ u] != M[u] ^ const for u in direction):
        return None
    return AffineMap(LinearMap(F.n, F.m, tuple(M[1 << i] for i in range(F.n))), const)


# -- the thirteen dimension-6 representatives -----------------------------

# Coefficient exponents (powers of the generator) of the linearized
# polynomials L_2 .. L_13; None marks an absent term.
_TABLE1_LOGS = [
    [42, 3, 34, 59, 59, 12],
    [18, 60, 17, 4, 17, 4],
    [18, 60, 57, 7, 32, 62],
    [42, 1, 29, 55, 9, 56],
    [42, 21, None, 4, 48, 16],
    [42, 19, 51, 59, 26, 38],
    [42, 19, 60, 11, 25, 13],
    [42, 21, 22, 31, 15, 61],
    [42, 47, 35, 54, 23, 27],
    [42, 21, 23, 32, 14, 51],
    [42, 21, 4, 56, 17, 20],
    [42, 21, None, 27, 34, 52],
]

from .field import PRESET_MODULI  # noqa: E402  (constant, no cycle)


def table1_maps(spec: FieldSpec) -> list[LinearMap]:
    """L_1 = 0 and L_2 .. L_13 on the degree-6 preset field."""
    if spec.n != 6 or spec.modulus != PRESET_MODULI[6] or spec.generator != 2:
        raise ValueError("the thirteen maps are defined on the degree-6 preset field")
    maps = [LinearMap.from_linearized(spec, [0] * 6)]
    for logs in _TABLE1_LOGS:
        coeffs = [0 if e is None else spec.gpow(e) for e in logs]
        maps.append(LinearMap.from_linearized(spec, coeffs))
    return maps


def table1_functions(spec: FieldSpec) -> list[VBF]:
    cube = power_function(spec, 3)
    return [hyperplane_modify(cube, L) for L in table1_maps(spec)]


# -- constant modification on codimension-2 cosets ------------------------

@dataclass(frozen=True)
class CosetDecomposition:
    """An (n-2)-dimensional subspace U with coset representatives
    u_1 = 0, u_2, u_3, u_4 partitioning F_2^n."""

    n: int
    basis: tuple[int, ...]
    reps: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.basis) != self.n - 2:
            raise ValueError("basis must have n - 2 vectors")
        if self.reps[0] != 0:
            raise ValueError("the first representative must be 0")
        self.coset_of  # build and validate

    @cached_property
    def subspace(self) -> tuple[int, ...]:
        if gf2_rank(self.basis) != len(self.basis):
            raise ValueError("basis vectors are dependent")
        return tuple(np.sort(_xor_span(self.basis)).tolist())

    @cached_property
    def coset_of(self) -> tuple[int, ...]:
        idx = np.full(1 << self.n, -1)
        idx[np.array(self.subspace) ^ np.array(self.reps)[:, None]] = np.arange(4)[:, None]
        if (idx < 0).any():
            raise ValueError("cosets do not partition the space")
        return tuple(idx.tolist())

    def coset(self, i: int) -> list[int]:
        u = self.reps[i]
        return [x ^ u for x in self.subspace]

    @classmethod
    def from_basis(cls, n: int, basis: tuple[int, ...]) -> "CosetDecomposition":
        """Canonical representatives: the smallest element of each coset,
        in increasing order of that minimum."""
        span = _xor_span(basis)
        covered = np.zeros(1 << n, dtype=bool)
        reps = [0]
        for _ in range(3):
            covered[span ^ reps[-1]] = True
            reps.append(int(np.argmin(covered)))
        return cls(n, tuple(basis), tuple(reps))

    @classmethod
    def from_subfield_trace(cls, spec: FieldSpec) -> "CosetDecomposition":
        """Fibers of Tr^n_2 over {0, 1, w, w^2}, as in the degree-8 example:
        U is the kernel with its greedy basis in increasing order, and the
        representatives are the fiber minima.  Tr^n_2 is F_2-linear, so its
        table is the span of the n basis images."""
        if spec.n % 2 != 0:
            raise ValueError("requires even degree")
        _, w, w2 = spec.cube_roots_of_unity()
        tr = _xor_span([spec.trace_to_subfield(1 << i, 2) for i in range(spec.n)])
        pivots: list = [None] * spec.n
        basis = [x for x in np.flatnonzero(tr == 0).tolist() if _insert(pivots, x)]
        reps = [int(np.argmax(tr == v)) for v in (1, w, w2)]
        return cls(spec.n, tuple(basis), (0, *reps))


def coset_modify(F: VBF, dec: CosetDecomposition,
                 consts: tuple[int, int, int, int]) -> VBF:
    """Add the constant a_i on the i-th coset."""
    if dec.n != F.n:
        raise ValueError("decomposition dimension does not match F")
    coset_of = dec.coset_of
    table = tuple(v ^ consts[coset_of[x]] for x, v in enumerate(F.table))
    return VBF(F.n, F.m, table, spec=F.spec)


def admissible_sums(F: VBF, dec: CosetDecomposition) -> frozenset[int]:
    """Complement of the F-sums over 2-flats meeting every coset once; the
    modified function is APN exactly when a_1+a_2+a_3+a_4 lands here.

    With the cosets C_1 = U, C_2, C_3, C_4, each such flat is
    {x, x+t, y, y+t} for exactly one x in C_1, t in C_2 and y in C_3, and
    its F-sum is D_tF(x) + D_tF(y).  With the count rows
    L_t(w) = #{x in C_1 : D_tF(x) = w} and R_t(w) = #{y in C_3 : D_tF(y) = w},
    the number of flats with sum v is N(v) = sum_t (L_t * R_t)(v), an XOR
    convolution, and the admissible sums are the zeros of N.  The
    directions t run in blocks of about _BLOCK gathered values; a block is
    one gather of D_tF over C_1 and C_3, one bincount and one
    Walsh-Hadamard transform of its rows, whose products are summed over
    t.  One inverse transform of length 2^m gives 2^m N.  Exact for any F:
    the int64 totals are at most 2^(3n+m-6), exact while 3n + m <= 68;
    larger shapes raise ValueError.
    """
    if dec.n != F.n:
        raise ValueError("decomposition dimension does not match F")
    U = np.array(dec.subspace)
    # rejects oversized shapes first, before the APN test
    flats = _flat_counts(F.as_array(), F.m, U, U ^ dec.reps[1], U ^ dec.reps[2])
    if not F.is_apn():
        raise ValueError("F must be APN")
    return frozenset(np.flatnonzero(flats == 0).tolist())


def coset_criterion(F: VBF, dec: CosetDecomposition,
                    consts: tuple[int, int, int, int]) -> bool:
    s = consts[0] ^ consts[1] ^ consts[2] ^ consts[3]
    return s in admissible_sums(F, dec)


# -- EA transforms (sample generators for invariant testing) ---------------

def ea_transform(F: VBF, a1: AffineMap, a2: AffineMap, a3: AffineMap) -> VBF:
    """A_1 o F o A_2 + A_3; preserves APN-ness and the CCZ invariants."""
    if not (a1.is_bijection() and a2.is_bijection()):
        raise ValueError("A_1 and A_2 must be affine bijections")
    if a2.n_in != F.n or a1.n_in != F.m or (a3.n_in, a3.n_out) != (F.n, F.m):
        raise ValueError("dimension mismatch")
    table = tuple(a1(F.table[a2(x)]) ^ a3(x) for x in range(1 << F.n))
    return VBF(F.n, F.m, table, spec=F.spec)


def random_affine_bijection(dim: int, rng: random.Random) -> AffineMap:
    while True:
        images = tuple(rng.randrange(1 << dim) for _ in range(dim))
        lm = LinearMap(dim, dim, images)
        if lm.is_injective():
            return AffineMap(lm, rng.randrange(1 << dim))


def random_ea_triple(n: int, m: int, rng: random.Random) -> tuple[AffineMap, AffineMap, AffineMap]:
    a1 = random_affine_bijection(m, rng)
    a2 = random_affine_bijection(n, rng)
    a3 = AffineMap(
        LinearMap(n, m, tuple(rng.randrange(1 << m) for _ in range(n))),
        rng.randrange(1 << m),
    )
    return a1, a2, a3
