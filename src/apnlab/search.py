"""Counting experiments and parameter searches: exhaustive or seeded
random scans over linear maps L (with L(e_0) = 0) for the hyperplane
modification of x^3, and deterministic random subspace samplers.

Candidate maps are encoded as one integer: the n-1 images of a fixed
basis of the trace-zero hyperplane, packed in n-bit digits, so an index
needs n(n-1) <= 63 bits (n <= 8).  Random mode draws indices with a
splitmix64 generator reduced modulo the space size, so hit lists are
reproducible from the seed alone.

Both modes test one kernel.  For F = x^3 the kernel criterion fails iff
some nonzero trace-zero x has L(x) in S_x = {B(x, a + e_0) : Tr(a) = 0},
so a boolean table forb[x, v] = (v in S_x) is built once per field.
Random mode gathers forb[x, L(x)] for every x of every candidate.
Exhaustive mode fixes the digits from the top down: a nonzero
trace-zero x is decided by the digit of its lowest basis coordinate d,
where L(x) = P(x) + d and P(x) comes from the higher digits already
fixed.  Each step ORs the bitmasks of the sets S_x + P(x) into the
values d may not take, so every surviving prefix yields its allowed
next digits at once, dead prefixes are never extended, and the lowest
digit's allowed values are the hits, in index order.
"""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .constructions import (
    CosetDecomposition,
    HyperplaneSpec,
    _exp_sum_lhs,
    _trace_modify,
    check_quadratic_apn,
    hyperplane_modify,
    th31_criterion,
)
from .field import FieldSpec
from .vbf import (
    LinearMap, _insert, _xor_span, gf2_rank, is_apn_batch, power_function,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Counter-based splitmix64; `below` reduces by modulo."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound

    def below_many(self, bound: int, count: int) -> np.ndarray:
        """The next `count` values of `below(bound)` as one uint64 array;
        numpy's uint64 arithmetic wraps mod 2^64 like the scalar stream."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self.state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        z %= np.uint64(bound)
        self.state = (self.state + count * _GAMMA) & _MASK64
        return z


@dataclass(frozen=True)
class SearchReport:
    space: str
    examined: int
    hits: int
    hit_list: tuple[int, ...]
    cap: int
    seed: Optional[int]
    workers: int

    def to_dict(self) -> dict:
        """The printed report; it carries no timing, so it depends only on
        the inputs."""
        return {**asdict(self), "hit_list": list(self.hit_list)}


# -- candidate encoding ----------------------------------------------------

def t0_basis(spec: FieldSpec) -> list[int]:
    """Greedy smallest-encoding basis of the trace-zero hyperplane."""
    pivots: list = [None] * spec.n
    return [x for x in spec.trace_zero_elements() if _insert(pivots, x)]


def map_space_size(spec: FieldSpec) -> int:
    return 1 << (spec.n * (spec.n - 1))


def linear_map_from_index(spec: FieldSpec, index: int,
                          e0: Optional[int] = None) -> LinearMap:
    """Decode a candidate index into the linear map on F_{2^n} sending the
    i-th trace-zero basis vector to the i-th digit and e_0 to 0."""
    return _maps_from_tables(spec, _full_l_tables(
        spec, np.array([index], dtype=np.int64), True, e0))[0]


def _maps_from_tables(spec: FieldSpec, ltabs: np.ndarray) -> list[LinearMap]:
    """The maps whose tables are the rows of `ltabs`."""
    images = ltabs[:, 1 << np.arange(spec.n)].tolist()
    return [LinearMap(spec.n, spec.n, tuple(row), spec=spec) for row in images]


# -- the kernel criterion for F = x^3 as forbidden sets -------------------

class _CubeKernel:
    """The kernel criterion for x^3 + Tr(x)L(x) as forbidden sets.

    Coordinate c < 2^(n-1) names x_c, the XOR of the trace-zero basis
    vectors at the set bits of c.  The criterion fails iff L(x_c) lies in
    S_c = {B(x_c, a + e_0) : Tr(a) = 0} for some c != 0, and `forb[c, v]`
    says whether v is in S_c (row 0 is empty).  Digit j of a candidate
    index is L(x_{2^j}), so every c is decided by the digits at its set
    bits, and last by the digit at its lowest set bit.
    """

    def __init__(self, spec: FieldSpec):
        n = spec.n
        if n * (n - 1) > 63:
            raise ValueError(
                f"a candidate index at n={n} needs {n * (n - 1)} bits; "
                "searches support n(n-1) <= 63, i.e. n <= 8")
        self.n, self.size = n, spec.size
        cube = np.array(power_function(spec, 3).table, dtype=np.int64)
        xs = _xor_span(t0_basis(spec))
        t1 = xs ^ spec.trace_one_element()  # the a + e_0
        bform = cube[xs[:, None] ^ t1] ^ cube[xs][:, None] ^ cube[t1] ^ cube[0]
        self.forb = np.zeros((xs.size, spec.size), dtype=bool)
        self.forb[np.arange(xs.size)[:, None], bform] = True
        self.forb[0] = False

    def holds(self, indices: np.ndarray) -> np.ndarray:
        """Criterion mask for an array of candidate indices: one gather of
        forb[c, L(x_c)] per index and coordinate."""
        n, k = self.n, self.forb.shape[0]
        block = 1 << 12
        flat = self.forb.ravel()
        offsets = np.arange(k) * self.size
        out = np.empty(indices.shape[0], dtype=bool)
        for lo in range(0, indices.shape[0], block):
            idx = indices[lo:lo + block].astype(np.uint64)
            digits = [(idx >> np.uint64(n * i)) & np.uint64(self.size - 1)
                      for i in range(n - 1)]
            ltab = _xor_span(digits, idx.shape, np.intp)
            ltab += offsets
            out[lo:lo + block] = ~flat[ltab].any(axis=1)
        return out

    @cached_property
    def shifted(self) -> np.ndarray:
        """shifted[c, p] = the set S_c + p as a bitmask of little-endian
        uint64 words, bit v standing for the value v."""
        v = np.arange(self.size)
        bits = np.zeros(self.forb.shape + (max(64, self.size),), dtype=bool)
        bits[..., :self.size] = self.forb[:, v[:, None] ^ v]
        return np.packbits(bits, axis=-1, bitorder="little").view("<u8")

    def _allowed(self, ltab: np.ndarray, cols: np.ndarray, j: int) -> np.ndarray:
        """Mask (B, 2^n) of the values of digit j that pass every
        coordinate with lowest set bit j, given L(x_cols[k]) = ltab[:, k]
        on the span of the higher digits."""
        forbidden = np.bitwise_or.reduce(self.shifted[cols | (1 << j), ltab], axis=1)
        bits = np.unpackbits(forbidden.astype("<u8").view(np.uint8), axis=1,
                             bitorder="little")
        return bits[:, :self.size] == 0

    def scan(self, lo: int, hi: int, cap: int) -> tuple[int, list[int]]:
        """Hit count, and the first `cap` hits in index order, over the
        candidates whose top digit lies in [lo, hi).

        Digits are fixed from the top down; each step keeps, for every
        surviving prefix, the digit values its forbidden sets leave free,
        so a whole block of 2^n candidates is decided at once and dead
        prefixes are never extended."""
        n = self.n
        chunk = max(1, (1 << 18) >> n)
        count = 0
        hits: list[int] = []

        def visit(base, ltab, cols, j):
            nonlocal count
            ok = self._allowed(ltab, cols, j)
            if j == n - 2:
                ok[:, :lo] = False
                ok[:, hi:] = False
            if j == 0:
                count += int(ok.sum())
                if len(hits) < cap:
                    rows, ds = np.nonzero(ok)
                    need = cap - len(hits)
                    hits.extend((base[rows[:need]] + ds[:need]).tolist())
                return
            rows, ds = np.nonzero(ok)
            base = base[rows] + (ds.astype(np.int64) << (n * j))
            ltab = ltab[rows]
            ltab = np.concatenate([ltab, ltab ^ ds[:, None]], axis=1)
            cols = np.concatenate([cols, cols | (1 << j)])
            for s in range(0, rows.size, chunk):
                visit(base[s:s + chunk], ltab[s:s + chunk], cols, j - 1)

        visit(np.zeros(1, dtype=np.int64), np.zeros((1, 1), dtype=np.intp),
              np.zeros(1, dtype=np.intp), n - 2)
        return count, hits


def _scan_worker(args) -> tuple[int, list[int]]:
    spec_fields, lo, hi, cap = args
    return _CubeKernel(FieldSpec(*spec_fields)).scan(lo, hi, cap)


# Below this degree a whole exhaustive scan takes at most ~0.1 s, less than
# starting a process pool, so `workers` only splits the range in-process.
_POOL_MIN_DEGREE = 7


class VerificationError(RuntimeError):
    """A fast path disagrees with the direct check it is verified by."""


def search_tr_l(spec: FieldSpec,
                mode: str = "exhaustive",
                samples: int = 0,
                seed: Optional[int] = None,
                workers: int = 1,
                cap: int = 64,
                long_ok: bool = False) -> SearchReport:
    """Count linear maps L with L(e_0) = 0 making x^3 + Tr(x)L(x) APN.

    Exhaustive mode scans the whole 2^(n(n-1)) space (degree >= 6 needs
    long_ok), splitting the top digit's range across `workers`, which run
    as processes from degree 7 on; random mode draws `samples` seeded
    indices.  Hits are spot-checked against the direct APN test (all hits
    for degree <= 5, 1 in 100 above).
    """
    if workers < 1:
        raise ValueError("worker count must be positive")
    if cap < 0:
        raise ValueError(f"cap {cap} must be non-negative")
    if samples < 0:
        raise ValueError(f"sample count {samples} must be non-negative")
    kernel = _CubeKernel(spec)
    total = map_space_size(spec)
    if mode == "exhaustive":
        if spec.n >= 6 and not long_ok:
            raise ValueError(
                f"exhaustive space 2^{spec.n * (spec.n - 1)} needs the long-run opt-in"
            )
        bounds = [(spec.size * w) // workers for w in range(workers + 1)]
        ranges = list(zip(bounds, bounds[1:]))
        if workers > 1 and spec.n >= _POOL_MIN_DEGREE:
            args = [((spec.n, spec.modulus, spec.generator), lo, hi, cap)
                    for lo, hi in ranges]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_scan_worker, args))
        else:
            results = [kernel.scan(lo, hi, cap) for lo, hi in ranges]
        hits = sum(c for c, _ in results)
        hit_list = [h for _, hl in results for h in hl][:cap]
        examined = total
        space = f"trl-exhaustive-n{spec.n}"
    elif mode == "random":
        if seed is None:
            raise ValueError("random mode needs a seed")
        indices = SplitMix64(seed).below_many(total, samples).astype(np.int64)
        mask = kernel.holds(indices)
        hits = int(mask.sum())
        hit_list = np.unique(indices[mask])[:cap].tolist()
        examined = samples
        space = f"trl-random-n{spec.n}"
    else:
        raise ValueError(f"unknown mode {mode!r}")

    _verify_hits(spec, hit_list, every=1 if spec.n <= 5 else 100)
    return SearchReport(
        space=space, examined=examined, hits=hits, hit_list=tuple(hit_list),
        cap=cap, seed=seed, workers=workers,
    )


def _verify_hits(spec: FieldSpec, hit_list: list[int], every: int) -> None:
    cube = power_function(spec, 3)
    check_quadratic_apn(cube)
    checked = hit_list[::every]
    maps = _maps_from_tables(spec, _full_l_tables(
        spec, np.array(checked, dtype=np.int64), True))
    for h, L in zip(checked, maps):
        if not th31_criterion(cube, L, checked=True):
            raise VerificationError(f"hit {h} fails the kernel criterion")
        if not hyperplane_modify(cube, L).is_apn():
            raise VerificationError(f"hit {h} fails the direct APN test")


# -- criterion-vs-oracle cross-checks --------------------------------------

@dataclass(frozen=True)
class CrossCheckReport:
    space: str
    examined: int
    agreements: int
    criterion_hits: int
    oracle_hits: int
    seconds: float

    @property
    def agrees(self) -> bool:
        return self.agreements == self.examined


def _full_l_tables(spec: FieldSpec, indices: np.ndarray,
                   constrained: bool, e0: Optional[int] = None) -> np.ndarray:
    """Tables of L over the whole field for each candidate index.

    Constrained indices pack images of the trace-zero basis and L(e_0) = 0,
    with e_0 the smallest trace-one element by default; unconstrained
    indices pack images of the standard basis in n-bit digits."""
    n = spec.n
    digits = [(indices >> (n * i)) & (spec.size - 1)
              for i in range(n - 1 if constrained else n)]
    if not constrained:
        return _xor_span(digits, indices.shape)
    if e0 is None:
        e0 = spec.trace_one_element()
    out = np.empty((indices.shape[0], spec.size), dtype=np.int64)
    out[:, _xor_span(t0_basis(spec) + [e0])] = \
        _xor_span(digits + [np.zeros_like(indices)], indices.shape)
    return out


def _batch_modify_apn(spec: FieldSpec, ltabs: np.ndarray) -> np.ndarray:
    cube = np.array(power_function(spec, 3).table, dtype=np.int64)
    return is_apn_batch(_trace_modify(cube, ltabs, spec), spec.n)


_CHECK_BLOCK = 1 << 13  # candidate indices per block of a cross-check


def th31_crosscheck(spec: FieldSpec,
                    samples: Optional[int] = None,
                    seed: Optional[int] = None) -> CrossCheckReport:
    """Kernel criterion vs direct APN test for x^3 + Tr*L over constrained
    maps (L(e_0) = 0): exhaustive, or `samples` seeded random indices."""
    kernel = _CubeKernel(spec)
    total = map_space_size(spec)
    if samples is None:
        indices, mode = np.arange(total, dtype=np.int64), "exhaustive"
    else:
        if seed is None:
            raise ValueError("sampled mode needs a seed")
        indices = SplitMix64(seed).below_many(total, samples).astype(np.int64)
        mode = "random"
    blocks = (indices[lo:lo + _CHECK_BLOCK] for lo in range(0, indices.size, _CHECK_BLOCK))
    return _crosscheck(spec, f"th31-vs-ddt-{mode}-n{spec.n}", blocks, True,
                       lambda blk, _: kernel.holds(blk))


def exp_sum_crosscheck(spec: FieldSpec) -> CrossCheckReport:
    """Exponential-sum criterion vs direct APN test for x^3 + Tr*L over all
    2^(n*n) linear maps; integer arithmetic throughout."""
    total = 1 << (spec.n * spec.n)
    target = (1 << (spec.n - 1)) - 1
    blocks = (np.arange(lo, min(lo + _CHECK_BLOCK, total), dtype=np.int64)
              for lo in range(0, total, _CHECK_BLOCK))
    return _crosscheck(spec, f"expsum-vs-ddt-exhaustive-n{spec.n}", blocks, False,
                       lambda _, ltabs: _exp_sum_lhs(spec, ltabs) == target)



def _crosscheck(spec: FieldSpec, space: str, blocks, constrained: bool,
                criterion) -> CrossCheckReport:
    """criterion(indices, L tables) against the direct APN test of
    x^3 + Tr*L, one block of candidate indices at a time."""
    t0 = time.monotonic()
    examined = agree = chits = ohits = 0
    for blk in blocks:
        ltabs = _full_l_tables(spec, blk, constrained)
        cmask, omask = criterion(blk, ltabs), _batch_modify_apn(spec, ltabs)
        examined += blk.size
        agree += int((cmask == omask).sum())
        chits += int(cmask.sum())
        ohits += int(omask.sum())
    return CrossCheckReport(space, examined, agree, chits, ohits, time.monotonic() - t0)


# -- subspace samplers -----------------------------------------------------

def _hyperplane_functional(n: int, basis: tuple[int, ...]) -> int:
    for a in range(1, 1 << n):
        if all(((a & v).bit_count() & 1) == 0 for v in basis):
            return a
    raise AssertionError("no functional annihilates the basis")  # pragma: no cover


def enumerate_subspaces(n: int, codim: int, count: int, seed: int):
    """Deterministic pseudorandom sampler of distinct codimension-1
    hyperplanes or codimension-2 coset decompositions."""
    if codim not in (1, 2):
        raise ValueError("codimension must be 1 or 2")
    dim = n - codim
    rng = SplitMix64(seed)
    seen: set = set()
    out = []
    attempts = 0
    limit = max(1000, 1000 * count)
    while len(out) < count and attempts < limit:
        attempts += 1
        basis = tuple(1 + rng.below((1 << n) - 1) for _ in range(dim))
        if gf2_rank(basis) < dim:
            continue
        if codim == 1:
            sub = HyperplaneSpec(n, _hyperplane_functional(n, basis), 0)
            key = sub.a
        else:
            sub = CosetDecomposition.from_basis(n, basis)
            key = sub.subspace
        if key not in seen:
            seen.add(key)
            out.append(sub)
    return out
