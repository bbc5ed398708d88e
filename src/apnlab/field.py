"""Arithmetic in F_{2^n} under an explicit polynomial-basis construction.

Field elements are plain ints in [0, 2^n): bit i is the coordinate of
alpha^i, where alpha is a root of the modulus polynomial.  0 and 1 encode
the additive and multiplicative identities, and addition is xor.  A
:class:`FieldSpec` carries the modulus and a multiplicative generator and
owns log/antilog tables, traces to subfields and the cube roots of unity.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

# Moduli pinned by the presets: n=6 is alpha^6+alpha^4+alpha^3+alpha+1,
# n=8 is alpha^8+alpha^4+alpha^3+alpha^2+1.
PRESET_MODULI = {6: 0b1011011, 8: 0x11D}

MAX_DEGREE = 16


def _pdeg(p: int) -> int:
    return p.bit_length() - 1


def _prem(a: int, b: int) -> int:
    """Remainder of the polynomial a modulo b over F_2."""
    db = _pdeg(b)
    while a and _pdeg(a) >= db:
        a ^= b << (_pdeg(a) - db)
    return a


def _pmulmod(a: int, b: int, modulus: int) -> int:
    """Carryless product of a and b reduced by modulus."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return _prem(r, modulus)


def is_irreducible(modulus: int) -> bool:
    """Exhaustive divisor test, fine for degree <= 16."""
    d = _pdeg(modulus)
    if d < 1:
        return False
    for q in range(2, 1 << (d // 2 + 1)):
        if _prem(modulus, q) == 0:
            return False
    return True


def _prime_factors(m: int) -> list[int]:
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def smallest_primitive_modulus(n: int) -> int:
    """Lexicographically smallest degree-n polynomial that is irreducible
    with x a generator of the multiplicative group."""
    order = (1 << n) - 1
    factors = _prime_factors(order)
    for mod in range((1 << n) + 1, 1 << (n + 1), 2):
        if not is_irreducible(mod):
            continue
        if all(_powmod_poly(2, order // p, mod) != 1 for p in factors):
            return mod
    raise ValueError(f"no primitive polynomial of degree {n}")  # pragma: no cover


def _powmod_poly(a: int, k: int, modulus: int) -> int:
    r = 1
    while k:
        if k & 1:
            r = _pmulmod(r, a, modulus)
        a = _pmulmod(a, a, modulus)
        k >>= 1
    return r


@dataclass(frozen=True)
class FieldSpec:
    """A concrete construction of F_{2^n}; immutable and safe to share."""

    n: int
    modulus: int
    generator: int = 2

    def __post_init__(self):
        if not 2 <= self.n <= MAX_DEGREE:
            raise ValueError(f"degree must be in [2, {MAX_DEGREE}], got {self.n}")
        if _pdeg(self.modulus) != self.n:
            raise ValueError(f"modulus 0x{self.modulus:x} does not have degree {self.n}")
        if not is_irreducible(self.modulus):
            raise ValueError(f"modulus 0x{self.modulus:x} is reducible")
        if not 0 < self.generator < self.order + 1:
            raise ValueError("generator out of range")
        ord_g = self.element_order(self.generator)
        if ord_g != self.order:
            raise ValueError(
                f"generator 0x{self.generator:x} has order {ord_g}, expected {self.order}"
            )

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def order(self) -> int:
        """Order of the multiplicative group, 2^n - 1."""
        return (1 << self.n) - 1

    # -- raw arithmetic (no tables) ------------------------------------

    def mul_raw(self, x: int, y: int) -> int:
        """Product via carryless multiplication and modulus reduction."""
        return _pmulmod(x, y, self.modulus)

    def element_order(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        ord_ = self.order
        for p in _prime_factors(self.order):
            while ord_ % p == 0 and _powmod_poly(x, ord_ // p, self.modulus) == 1:
                ord_ //= p
        return ord_

    # -- log/antilog tables --------------------------------------------

    @cached_property
    def _tables(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        exp = [1] * self.order
        log = [0] * self.size
        v = 1
        for k in range(self.order):
            exp[k] = v
            log[v] = k
            v = self.mul_raw(v, self.generator)
        return tuple(exp), tuple(log)

    @property
    def antilog(self) -> tuple[int, ...]:
        return self._tables[0]

    @property
    def log(self) -> tuple[int, ...]:
        return self._tables[1]

    # -- field operations ----------------------------------------------

    @staticmethod
    def add(x: int, y: int) -> int:
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        exp, log = self._tables
        return exp[(log[x] + log[y]) % self.order]

    def sqr(self, x: int) -> int:
        return self.mul(x, x)

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        exp, log = self._tables
        return exp[(-log[x]) % self.order]

    def pow(self, x: int, k: int) -> int:
        if x == 0:
            if k < 0:
                raise ZeroDivisionError("negative power of 0")
            return 1 if k == 0 else 0
        exp, log = self._tables
        return exp[(log[x] * k) % self.order]

    def gpow(self, k: int) -> int:
        """Encoding of generator^k."""
        return self.antilog[k % self.order]

    # -- traces ---------------------------------------------------------

    @cached_property
    def trace_mask(self) -> int:
        mask = 0
        for i in range(self.n):
            x = 1 << i
            t = 0
            for _ in range(self.n):
                t ^= x
                x = self.mul_raw(x, x)
            # t is Tr(alpha^i), in {0, 1}
            mask |= t << i
        return mask

    def trace_absolute(self, x: int) -> int:
        """Absolute trace Tr(x) = sum of x^(2^i), a bit."""
        return (x & self.trace_mask).bit_count() & 1

    def trace_to_subfield(self, x: int, m: int) -> int:
        """Tr^n_m(x) = sum of x^(2^(i*m)); lands in the embedded F_{2^m}."""
        if m <= 0 or self.n % m != 0:
            raise ValueError(f"{m} does not divide the degree {self.n}")
        acc = 0
        for _ in range(self.n // m):
            acc ^= x
            for _ in range(m):
                x = self.mul(x, x)
        return acc

    def cube_roots_of_unity(self) -> tuple[int, int, int]:
        """(1, w, w^2) with w^2 + w + 1 = 0; requires even degree."""
        if self.n % 2 != 0:
            raise ValueError("F_4 is not a subfield when the degree is odd")
        w = self.gpow(self.order // 3)
        return (1, w, self.mul(w, w))

    def trace_one_element(self) -> int:
        """Smallest encoding with absolute trace 1."""
        for x in range(1, self.size):
            if self.trace_absolute(x):
                return x
        raise AssertionError("trace is identically zero")  # pragma: no cover

    def trace_zero_elements(self) -> list[int]:
        return [x for x in range(self.size) if not self.trace_absolute(x)]

    # -- element formatting ---------------------------------------------

    def format_element(self, x: int, style: str = "hex") -> str:
        if style == "hex":
            return f"0x{x:x}"
        if style == "power":
            if x == 0:
                return "0"
            return f"g^{self.log[x]}"
        raise ValueError(f"unknown element style {style!r}")

    def parse_element(self, s: str) -> int:
        s = s.strip()
        if s.startswith("g^"):
            x = self.gpow(int(s[2:]))
        else:
            x = int(s, 16)
        if not 0 <= x < self.size:
            raise ValueError(f"element {s!r} out of range for degree {self.n}")
        return x


@cache
def field_for(n: int, modulus: int | None = None, generator: int | None = None) -> FieldSpec:
    """The field of degree n: paper presets for n in {6, 8}, otherwise
    the smallest primitive modulus; searches for a generator if needed.
    Memoised on the arguments as given, and on the resolved field, so each
    field builds its tables once per process however it is asked for."""
    if modulus is None:
        modulus = PRESET_MODULI.get(n) or smallest_primitive_modulus(n)
    if generator is None:
        generator = _find_generator(n, modulus)
    return _field(n, modulus, generator)


@cache
def _field(n: int, modulus: int, generator: int) -> FieldSpec:
    return FieldSpec(n=n, modulus=modulus, generator=generator)


def _find_generator(n: int, modulus: int) -> int:
    order = (1 << n) - 1
    factors = _prime_factors(order)
    for g in range(2, 1 << n):
        if all(_powmod_poly(g, order // p, modulus) != 1 for p in factors):
            return g
    raise ValueError(f"no generator found for modulus 0x{modulus:x}")  # pragma: no cover
