"""Independent brute-force oracles used to cross-validate the library.

Everything here is written as directly as possible from the definitions
(no shared code with the package beyond plain tables) so that agreement
is meaningful.
"""
from __future__ import annotations


def poly_mul_mod(a: int, b: int, modulus: int, n: int) -> int:
    """Carry-less product of a and b reduced mod the degree-n modulus."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> n:
            a ^= modulus
    return acc


def oracle_ddt(table, n: int, m: int):
    """DDT from the definition: count x with F(x+a)+F(x) = b."""
    ddt = [[0] * (1 << m) for _ in range(1 << n)]
    for a in range(1 << n):
        for x in range(1 << n):
            ddt[a][table[x ^ a] ^ table[x]] += 1
    return ddt


def oracle_uniformity(table, n: int, m: int) -> int:
    ddt = oracle_ddt(table, n, m)
    return max(ddt[a][b] for a in range(1, 1 << n) for b in range(1 << m))


def oracle_is_apn(table, n: int, m: int) -> bool:
    return oracle_uniformity(table, n, m) <= 2


def oracle_walsh(table, n: int, m: int, a: int, b: int) -> int:
    """Direct signed character sum with dot-product pairings."""
    s = 0
    for x in range(1 << n):
        e = bin(a & x).count("1") + bin(b & table[x]).count("1")
        s += -1 if e & 1 else 1
    return s


def oracle_anf_coeffs(table, n: int):
    """ANF coefficients by direct interpolation: c_u = sum of F over the
    subcube below u."""
    coeffs = []
    for u in range(1 << n):
        acc = 0
        for x in range(1 << n):
            if x & ~u == 0:
                acc ^= table[x]
        coeffs.append(acc)
    return coeffs


def oracle_degree(table, n: int) -> int:
    coeffs = oracle_anf_coeffs(table, n)
    degs = [bin(u).count("1") for u, c in enumerate(coeffs) if c]
    return max(degs, default=0)


def oracle_gf2_rank(matrix) -> int:
    """Dense Gaussian elimination on a list of 0/1 row lists."""
    rows = [list(r) for r in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def oracle_four_sum_values(table, n: int):
    """All values F(x)+F(y)+F(z)+F(x+y+z) over distinct-triple flats."""
    vals = set()
    for x in range(1 << n):
        for y in range(1 << n):
            for z in range(1 << n):
                w = x ^ y ^ z
                if len({x, y, z, w}) == 4:
                    vals.add(table[x] ^ table[y] ^ table[z] ^ table[w])
    return vals


def oracle_gamma_rank(table, n: int, m: int) -> int:
    """Rank of the 2^(n+m)-square incidence matrix, eliminating its rows
    one by one: row (u, v) has a 1 at column (a, b) iff F(a + u) = b + v."""
    words = 1 << (n + m - 3) if n + m >= 3 else 1
    pivots: dict[int, int] = {}
    for u in range(1 << n):
        shifted = [((a ^ u) << m) | fa for a, fa in enumerate(table)]
        for v in range(1 << m):
            buf = bytearray(words)
            for pos in shifted:
                p = pos ^ v
                buf[p >> 3] |= 1 << (p & 7)
            row = int.from_bytes(buf, "little")
            while row:
                b = row.bit_length() - 1
                if b not in pivots:
                    pivots[b] = row
                    break
                row ^= pivots[b]
    return len(pivots)


def project(F, pi):
    """pi o F, value by value, as a function of the same type as F."""
    return type(F)(F.n, pi.n_out, tuple(pi(v) for v in F.table))


def split_pair(F):
    """(f, g) with F = (f, g): the last output bit is g."""
    f = type(F)(F.n, F.m - 1, tuple(v >> 1 for v in F.table))
    g = type(F)(F.n, 1, tuple(v & 1 for v in F.table))
    return f, g


def oracle_flat_counts(table, m: int, left, dirs, right):
    """N(v) = #{(x, t, y) in left x dirs x right :
    F(x) + F(x+t) + F(y) + F(y+t) = v} for every v below 2^m, by
    enumerating the triples."""
    counts = [0] * (1 << m)
    for x in left:
        for t in dirs:
            for y in right:
                counts[table[x] ^ table[x ^ t] ^ table[y] ^ table[y ^ t]] += 1
    return counts


def oracle_admissible_sums(table, m: int, cosets):
    """Values s in F_2^m outside {F(x1)+F(x2)+F(x3)+F(x4)} over all
    xi in the i-th of the four cosets with x1+x2+x3+x4 = 0."""
    c1, c2, c3, c4 = (set(c) for c in cosets)
    sums = set()
    for x1 in c1:
        for x2 in c2:
            for x3 in c3:
                x4 = x1 ^ x2 ^ x3
                assert x4 in c4
                sums.add(table[x1] ^ table[x2] ^ table[x3] ^ table[x4])
    return set(range(1 << m)) - sums


def oracle_coset_minima(n: int, basis):
    """The smallest element of each coset of span(basis) in F_2^n, in
    increasing order, from the span of every subset of the basis."""
    span = set()
    for c in range(1 << len(basis)):
        v = 0
        for i, b in enumerate(basis):
            if (c >> i) & 1:
                v ^= b
        span.add(v)
    return sorted({min(x ^ s for s in span) for x in range(1 << n)})


def oracle_exp_sum_lhs(L, spec) -> int:
    """The exponential sum of x^3 + Tr(x)L(x) element by element: with
    y = x^2 + x over x not in {0, 1}, the sum of (-1)^Tr(x^2 L(y) / y^3)
    minus half the sum of (-1)^Tr(L(y) / y^3)."""
    s1 = 0
    s2 = 0
    for x in range(2, spec.size):
        y = spec.mul(x, x) ^ x
        ly = L(y)
        iy3 = spec.inv(spec.pow(y, 3))
        s1 += -1 if spec.trace_absolute(spec.mul(spec.mul(spec.mul(x, x), ly), iy3)) else 1
        s2 += -1 if spec.trace_absolute(spec.mul(ly, iy3)) else 1
    assert s2 % 2 == 0
    return s1 - s2 // 2


def oracle_concat_witness(f_table, g_table, n: int):
    """The first (x, y, a) with f(x+a) + f(x) = g(y+a) + g(y), a != 0:
    smallest a, then the first y, then the smallest x for that y; None
    when the derivatives of f and g never meet at the same direction."""
    size = 1 << n
    for a in range(1, size):
        fd = {}
        for x in range(size):
            fd.setdefault(f_table[x ^ a] ^ f_table[x], x)
        for y in range(size):
            v = g_table[y ^ a] ^ g_table[y]
            if v in fd:
                return fd[v], y, a
    return None


def oracle_quadratic_concat(f_table, l_table, n: int) -> bool:
    """Whether L(x) != B_f(x, A) = f(x+A) + f(x) + f(A) + f(0) for every
    x != 0 and every A."""
    size = 1 << n
    for A in range(size):
        for x in range(1, size):
            if l_table[x] == f_table[x ^ A] ^ f_table[x] ^ f_table[A] ^ f_table[0]:
                return False
    return True
