"""Reference computations the benchmark checks apnlab's outputs against.

Nothing here imports apnlab: the field arithmetic, the DDT / APN test,
the Walsh histogram, the Moebius degree, the GF(2) rank, the splitmix64
stream and the trace-zero map decoder are written again from their
definitions, with numpy.  `python3 perfbench/checks.py` self-tests them
against the brute-force oracles in tests/_oracles.py at n <= 5;
`python3 perfbench/checks.py --table1-ranks` recomputes the stored
Gamma-ranks of the thirteen Table-1 functions.
"""
from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
RANKS_FILE = HERE / "table1_ranks.json"

# Moduli the program documents for n = 6 and n = 8; other degrees take
# the smallest primitive polynomial.
PRESET_MODULI = {6: 0x5B, 8: 0x11D}

# Table 1 of the paper: generator exponents of the coefficients of
# L_2 .. L_13 (coefficient of x^(2^i) at position i; None: no term).
TABLE1_LOGS = [
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


# -- the field F_2^n ----------------------------------------------------------

def _order_of_x(modulus: int, n: int) -> int:
    v, k = 2, 1
    while v != 1:
        v <<= 1
        if v >> n:
            v ^= modulus
        k += 1
        if k > 1 << n:
            return 0
    return k


def smallest_primitive_modulus(n: int) -> int:
    """x has order 2^n - 1 modulo p exactly when p is primitive."""
    for p in range((1 << n) + 1, 1 << (n + 1), 2):
        if _order_of_x(p, n) == (1 << n) - 1:
            return p
    raise ValueError(f"no primitive modulus of degree {n}")


class Field:
    """F_2^n in polynomial basis, with a full multiplication table."""

    def __init__(self, n: int, modulus: int | None = None):
        self.n = n
        self.size = 1 << n
        self.modulus = modulus or PRESET_MODULI.get(n) or smallest_primitive_modulus(n)
        xs = np.arange(self.size, dtype=np.int64)
        acc = np.zeros((self.size, self.size), dtype=np.int64)
        for i in range(n):
            acc ^= np.where((xs[None, :] >> i) & 1, xs[:, None] << i, 0)
        for bit in range(2 * n - 2, n - 1, -1):
            acc ^= np.where((acc >> bit) & 1, self.modulus << (bit - n), 0)
        self.mul = acc
        self.xs = xs
        self.trace = self._frobenius_sum(xs, 1)

    def sq(self, v: np.ndarray) -> np.ndarray:
        return self.mul[v, v]

    def power(self, d: int) -> np.ndarray:
        """The table of x -> x^d."""
        out = np.ones(self.size, dtype=np.int64)
        base = self.xs.copy()
        while d:
            if d & 1:
                out = self.mul[out, base]
            base = self.sq(base)
            d >>= 1
        return out

    def gpow(self, k: int) -> int:
        """The generator is x itself (encoding 2) on every field used."""
        v = 1
        for _ in range(k % (self.size - 1)):
            v = int(self.mul[v, 2])
        return v

    def _frobenius_sum(self, v: np.ndarray, step: int) -> np.ndarray:
        acc = np.zeros_like(v)
        for _ in range(self.n // step):
            acc ^= v
            for _ in range(step):
                v = self.sq(v)
        return acc

    def trace_to_subfield(self, m: int) -> np.ndarray:
        return self._frobenius_sum(self.xs, m)

    def linearized(self, coeffs) -> np.ndarray:
        """The table of x -> sum coeffs[i] x^(2^i)."""
        out = np.zeros(self.size, dtype=np.int64)
        v = self.xs
        for c in coeffs:
            out ^= self.mul[c, v]
            v = self.sq(v)
        return out


def table1_function(field: Field, i: int) -> np.ndarray:
    """G_i = x^3 + Tr(x) L_i(x) on the degree-6 preset field, i = 1..13."""
    cube = field.power(3)
    if i == 1:
        return cube
    coeffs = [0 if e is None else field.gpow(e) for e in TABLE1_LOGS[i - 2]]
    return cube ^ (field.trace * field.linearized(coeffs))


# -- per-function checkers ----------------------------------------------------

def uniformity(table: np.ndarray, n: int, m: int) -> int:
    """Largest DDT entry off a = 0."""
    T = np.asarray(table, dtype=np.int64)
    xs = np.arange(1 << n)
    a = xs[1:, None]
    d = T[a ^ xs[None, :]] ^ T[None, :]
    keys = (a - 1) * (1 << m) + d
    return int(np.bincount(keys.ravel(), minlength=((1 << n) - 1) << m).max())


def is_apn(table: np.ndarray, n: int, m: int) -> bool:
    return uniformity(table, n, m) <= 2


def _fwht(v: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis."""
    v = v.copy()
    size = v.shape[-1]
    h = 1
    while h < size:
        v = v.reshape(v.shape[:-1] + (size // (2 * h), 2, h))
        lo, hi = v[..., 0, :].copy(), v[..., 1, :]
        v[..., 0, :] += hi
        v[..., 1, :] = lo - hi
        v = v.reshape(v.shape[:-3] + (size,))
        h *= 2
    return v


def _popcount(v: np.ndarray) -> np.ndarray:
    c = np.zeros_like(v)
    while v.any():
        c += v & 1
        v = v >> 1
    return c


def walsh_histogram(table: np.ndarray, n: int, m: int) -> Counter:
    """Multiset of W(a, b) = sum_x (-1)^(b.F(x) + a.x) over all a, b != 0."""
    T = np.asarray(table, dtype=np.int64)
    bs = np.arange(1, 1 << m)[:, None]
    signs = 1 - 2 * (_popcount(bs & T[None, :]) & 1)
    vals, counts = np.unique(_fwht(signs), return_counts=True)
    return Counter(dict(zip(vals.tolist(), counts.tolist())))


def absolute(hist: Counter) -> Counter:
    out: Counter = Counter()
    for v, c in hist.items():
        out[abs(v)] += c
    return out


def degree(table: np.ndarray, n: int) -> int:
    """Algebraic degree from the Moebius transform of all coordinates."""
    a = np.asarray(table, dtype=np.int64).copy()
    for i in range(n):
        a = a.reshape(-1, 2, 1 << i)
        a[:, 1, :] ^= a[:, 0, :]
        a = a.reshape(-1)
    weights = _popcount(np.nonzero(a)[0])
    return int(weights.max()) if weights.size else 0


def classical_abs(field: Field) -> Counter:
    """Absolute Walsh multiset of x^3, which defines the classical
    spectrum at even n."""
    return absolute(walsh_histogram(field.power(3), field.n, field.n))


# -- GF(2) rank of the graph incidence matrix ---------------------------------

def gf2_rank(bits: np.ndarray) -> int:
    """Rank of a 0/1 matrix by elimination on packed 64-bit words."""
    rows = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    pad = (-rows.shape[1]) % 8
    rows = np.pad(rows, ((0, 0), (0, pad))).view(np.uint64)
    rank = 0
    ncols = bits.shape[1]
    for c in range(ncols):
        w, b = divmod(c, 64)
        bit = np.uint64(1 << b)
        col = (rows[rank:, w] & bit) != 0
        hit = np.flatnonzero(col)
        if hit.size == 0:
            continue
        p = rank + hit[0]
        rows[[rank, p]] = rows[[p, rank]]
        below = rank + 1 + np.flatnonzero((rows[rank + 1:, w] & bit) != 0)
        rows[below] ^= rows[rank]
        rank += 1
        if rank == rows.shape[0]:
            break
    return rank


def incidence_matrix(table: np.ndarray, n: int, m: int) -> np.ndarray:
    """Row (u, v), column (a, b): 1 iff F(a + u) = b + v."""
    T = np.asarray(table, dtype=np.int64)
    side = 1 << (n + m)
    u = np.arange(1 << n)[:, None, None]
    v = np.arange(1 << m)[None, :, None]
    a = np.arange(1 << n)[None, None, :]
    cols = (a << m) | (T[a ^ u] ^ v)
    mat = np.zeros((side, side), dtype=bool)
    rows = ((u << m) | v).repeat(1 << n, axis=2)
    mat[rows.ravel(), cols.ravel()] = True
    return mat


def gamma_rank(table: np.ndarray, n: int, m: int) -> int:
    return gf2_rank(incidence_matrix(table, n, m))


def stored_table1_ranks() -> list[int]:
    return json.loads(RANKS_FILE.read_text())["ranks"]


# -- searches: splitmix64 and the trace-zero map encoding ---------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """The first `count` outputs of splitmix64 from `seed`."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed & (2**64 - 1)) + _GAMMA * np.arange(1, count + 1, dtype=np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def trace_zero_basis(field: Field) -> tuple[list[int], int]:
    """Greedy smallest-encoding basis of the trace-zero hyperplane, and the
    smallest trace-one element e_0."""
    basis: list[int] = []
    span = {0}
    for x in range(1, field.size):
        if field.trace[x] == 0 and x not in span:
            basis.append(x)
            span |= {s ^ x for s in span}
    e0 = int(np.flatnonzero(field.trace)[0])
    return basis, e0


def modified_cubes(field: Field, indices: np.ndarray) -> np.ndarray:
    """Tables of x^3 + Tr(x) L(x), one row per index, where L sends the
    i-th trace-zero basis vector to the i-th n-bit digit of the index and
    e_0 to 0."""
    basis, e0 = trace_zero_basis(field)
    vecs = basis + [e0]
    combos = np.arange(field.size)
    xs = np.zeros(field.size, dtype=np.int64)
    for i, v in enumerate(vecs):
        xs ^= ((combos >> i) & 1) * v
    L = np.zeros((len(indices), field.size), dtype=np.int64)
    for i in range(len(basis)):
        digit = (np.asarray(indices, dtype=np.int64) >> (field.n * i)) & (field.size - 1)
        L[:, xs] ^= digit[:, None] * ((combos >> i) & 1)[None, :]
    return field.power(3)[None, :] ^ (field.trace[None, :] * L)


def apn_mask(tables: np.ndarray, n: int, chunk: int = 1024) -> np.ndarray:
    """APN test of each row of a (B, 2^n) stack of (n, n)-tables."""
    size = 1 << n
    xs = np.arange(size)
    a = xs[1:, None]
    out = []
    for lo in range(0, len(tables), chunk):
        T = tables[lo:lo + chunk]
        d = T[:, a ^ xs[None, :]] ^ T[:, None, :]
        keys = (np.arange(len(T))[:, None, None] * (size - 1) + (a - 1)[None]) * size + d
        counts = np.bincount(keys.ravel(), minlength=len(T) * (size - 1) * size)
        out.append(counts.reshape(len(T), -1).max(axis=1) <= 2)
    return np.concatenate(out) if out else np.zeros(0, dtype=bool)


# -- affine maps for EA copies ------------------------------------------------

def random_linear(rng: random.Random, n_in: int, n_out: int,
                  bijective: bool) -> np.ndarray:
    """Table of a seeded linear map F_2^n_in -> F_2^n_out."""
    while True:
        imgs = [rng.randrange(1 << n_out) for _ in range(n_in)]
        table = np.zeros(1 << n_in, dtype=np.int64)
        for i, img in enumerate(imgs):
            table[1 << i: 2 << i] = table[: 1 << i] ^ img
        if not bijective or np.unique(table).size == table.size:
            return table


def linear_ea_copy(table: np.ndarray, n: int, m: int,
                   rng: random.Random) -> np.ndarray:
    """A1 o F o A2 + A3 with linear A1, A2 bijective and A3 linear.

    Linear maps only permute the pairs (a, b), so even the signed Walsh
    multiset is kept."""
    a1 = random_linear(rng, m, m, True)
    a2 = random_linear(rng, n, n, True)
    a3 = random_linear(rng, n, m, False)
    return a1[np.asarray(table)[a2]] ^ a3


# -- file formats -------------------------------------------------------------

def vbf1_text(table, n: int, m: int) -> str:
    return f"{n} {m}\n" + " ".join(f"{int(v):x}" for v in table) + "\n"


def parse_vbf1(text: str) -> tuple[int, int, np.ndarray]:
    head, *rest = text.split("\n", 1)
    n, m = map(int, head.split())
    vals = np.array([int(t, 16) for t in (rest[0] if rest else "").split()], dtype=np.int64)
    if vals.size != 1 << n or (vals >> m).any():
        raise ValueError("malformed vbf1 output")
    return n, m, vals


# -- self-test against the brute-force oracles --------------------------------

def self_test(repo: Path) -> None:
    """Raise ValueError on any disagreement with tests/_oracles.py; quick
    enough to run before every benchmark run."""
    sys.path.insert(0, str(repo / "tests"))
    try:
        import _oracles as o
    finally:
        sys.path.pop(0)
    rng = random.Random(20251017)

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"checker self-test failed: {what}")

    for n, m in ((3, 3), (4, 4), (4, 3), (5, 5), (3, 4)):
        for _ in range(3):
            t = [rng.randrange(1 << m) for _ in range(1 << n)]
            need(uniformity(np.array(t), n, m) == o.oracle_uniformity(t, n, m), "DDT")
            need(degree(np.array(t), n) == o.oracle_degree(t, n), "degree")
            hist = Counter(o.oracle_walsh(t, n, m, a, b)
                           for a in range(1 << n) for b in range(1, 1 << m))
            need(walsh_histogram(np.array(t), n, m) == hist, "Walsh")
        t = [rng.randrange(1 << m) for _ in range(1 << n)]
        if n + m <= 7:
            mat = incidence_matrix(np.array(t), n, m)
            need(gamma_rank(np.array(t), n, m) == o.oracle_gf2_rank(mat.astype(int).tolist()),
                 "Gamma-rank")
    for _ in range(3):
        mat = np.array([[rng.random() < 0.3 for _ in range(70)] for _ in range(50)])
        need(gf2_rank(mat) == o.oracle_gf2_rank(mat.astype(int).tolist()), "GF(2) rank")
    for n in (3, 4, 5):
        f = Field(n)
        for _ in range(20):
            x, y = rng.randrange(f.size), rng.randrange(f.size)
            need(int(f.mul[x, y]) == o.poly_mul_mod(x, y, f.modulus, n), "field product")
        need(is_apn(f.power(3), n, n), "x^3 APN")
        idx = np.array([rng.randrange(1 << (n * (n - 1))) for _ in range(8)])
        tables = modified_cubes(f, idx)
        need(apn_mask(tables, n).tolist()
             == [o.oracle_is_apn(t.tolist(), n, n) for t in tables], "batch APN")
    f4 = Field(4)
    need(int(apn_mask(modified_cubes(f4, np.arange(1 << 12)), 4).sum()) == 448,
         "448 APN maps at n = 4")
    state, want = 7, []
    for _ in range(5):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        want.append(z ^ (z >> 31))
    need(splitmix64(7, 5).tolist() == want, "splitmix64")


def _write_table1_ranks() -> None:
    field = Field(6)
    ranks = [gamma_rank(table1_function(field, i), 6, 6) for i in range(1, 14)]
    RANKS_FILE.write_text(json.dumps({
        "about": "Gamma-ranks of G_1..G_13 = x^3 + Tr(x) L_i(x) on F_2^6 "
                 "(modulus 0x5b), by perfbench/checks.py --table1-ranks",
        "ranks": ranks}, indent=1) + "\n")
    print(ranks)


if __name__ == "__main__":
    if sys.argv[1:] == ["--table1-ranks"]:
        _write_table1_ranks()
    else:
        self_test(HERE.parent)
        print("checker self-test passed")
