"""File formats.

"vbf1": first line `n m`, second line 2^n whitespace-separated hex values
of F(0), ..., F(2^n - 1).

"lin1": first line `n`, then up to n lines `i coeff` giving the
coefficient of x^(2^i); coefficients in hex or `g^k` notation.
"""
from __future__ import annotations

from typing import Optional, TextIO

from .field import FieldSpec
from .vbf import VBF, LinearMap


class FormatError(ValueError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def read_vbf1(fh: TextIO, spec: Optional[FieldSpec] = None) -> VBF:
    lines = fh.read().split("\n")
    if not lines or not lines[0].strip():
        raise FormatError(1, "expected header `n m`")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(1, "expected header `n m`")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(1, "expected header `n m`") from None
    if n < 0 or m < 0:
        raise FormatError(1, f"dimensions {n} {m} must be non-negative")
    tokens: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        for tok in line.split():
            try:
                tokens.append(int(tok, 16))
            except ValueError:
                raise FormatError(lineno, f"bad hex value {tok!r}") from None
    if len(tokens) != 1 << n:
        raise FormatError(len(lines), f"expected {1 << n} values, got {len(tokens)}")
    if any(not 0 <= v < (1 << m) for v in tokens):
        raise FormatError(2, f"value out of range for output dimension {m}")
    if spec is not None and spec.n != n:
        spec = None
    return VBF(n, m, tuple(tokens), spec=spec)


def write_vbf1(fh: TextIO, F: VBF) -> None:
    fh.write(f"{F.n} {F.m}\n")
    fh.write(" ".join(f"{v:x}" for v in F.table))
    fh.write("\n")


def read_lin1(fh: TextIO, spec: FieldSpec) -> LinearMap:
    lines = [ln for ln in fh.read().split("\n")]
    if not lines or not lines[0].strip():
        raise FormatError(1, "expected header `n`")
    try:
        n = int(lines[0])
    except ValueError:
        raise FormatError(1, "expected header `n`") from None
    if n != spec.n:
        raise FormatError(1, f"map degree {n} does not match field degree {spec.n}")
    coeffs = [0] * n
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(lineno, "expected `i coeff`")
        try:
            i = int(parts[0])
        except ValueError:
            raise FormatError(lineno, f"bad exponent index {parts[0]!r}") from None
        if not 0 <= i < n:
            raise FormatError(lineno, f"exponent index {i} out of range [0, {n})")
        try:
            coeffs[i] = spec.parse_element(parts[1])
        except ValueError as e:
            raise FormatError(lineno, str(e)) from None
    return LinearMap.from_linearized(spec, coeffs)


def write_lin1(fh: TextIO, L: LinearMap, style: str = "hex") -> None:
    if L.coeffs is None or L.spec is None:
        raise ValueError("map has no linearized-polynomial representation")
    fh.write(f"{L.spec.n}\n")
    for i, c in enumerate(L.coeffs):
        if c:
            fh.write(f"{i} {L.spec.format_element(c, style)}\n")
