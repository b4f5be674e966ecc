"""Spherical-harmonic (Fourier-Laplace) decomposition of homogeneous polynomials.

A homogeneous polynomial f of even degree 2n decomposes uniquely as
f = sum_k |x|^(2(n-k)) f_{2k} with each f_{2k} harmonic of degree 2k.  The
decomposition is recovered from iterated Laplacians: applying Delta^m to the
expansion multiplies the f_{2k} term by a known positive coefficient and
drops the |x| power, which yields a triangular system solved by
back-substitution.  Scalar and matrix polynomials share the Laplacian,
|x|^2 multiplication and linear combinations used here, so one function
decomposes both (a matrix polynomial entry by entry, through the same
operations).  A decomposition's JSON parts reload through poly.from_dict,
which tells scalar from matrix parts by their own keys.  A decomposition
holds the parts only; reconstruct() sums them back for a caller that needs
the input again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .poly import MatPoly, Poly, _integers, from_dict


def _falling(a: float, m: int) -> float:
    out = 1.0
    for i in range(m):
        out *= a - i
    return out


def r_coefficient(n: int, d: int, m: int, k: int) -> float:
    """Coefficient of |x|^(2(n-k-m)) f_{2k} in Delta^m of |x|^(2(n-k)) f_{2k}.

    Equals 4^m (n-k)_m (n+k+d/2-1)_m with falling factorials (half-integer
    arguments allowed); zero when the Laplacian power annihilates the term
    (k > n - m)."""
    if m < 0 or k < 0 or n < 0:
        raise ValueError("arguments must be nonnegative")
    if k > n - m:
        return 0.0
    return 4.0**m * _falling(n - k, m) * _falling(n + k + d / 2.0 - 1.0, m)


def b_constant(n: int) -> float:
    """Upper bound on the sup-norm projection constant B_{2n}.

    2 for n = 1; 10 for n = 2 (the appendix chain with the quartic Laplacian
    coefficient 2d+8, which the round-trip recursion validates); the general
    (2n)! (1 + (2n)!)^n otherwise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 2.0
    if n == 2:
        return 10.0
    f = float(math.factorial(2 * n))
    return f * (1.0 + f) ** n


@dataclass
class HarmonicDecomp:
    """Harmonic parts f_{2k}, k = 0..n, of a degree-2n polynomial."""

    n: int
    parts: list = field(repr=False)

    def reconstruct(self):
        """Sum of |x|^(2(n-k)) f_{2k}; equals the decomposed input."""
        out = None
        for k, part in enumerate(self.parts):
            lifted = part.mul_norm_power(self.n - k)
            out = lifted if out is None else out + lifted
        return out

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "parts": [p.to_dict() for p in self.parts],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HarmonicDecomp":
        # Older certificates also hold a derived "matrix" key: the parts carry
        # the type, so it is not read.
        return cls(n=_integers((data["n"],), "n")[0], parts=[from_dict(p) for p in data["parts"]])


def decompose(f: Poly | MatPoly) -> HarmonicDecomp:
    """Fourier-Laplace decomposition of an even-degree homogeneous polynomial,
    scalar or symmetric matrix-valued."""
    if f.degree % 2 != 0:
        raise ValueError(f"degree {f.degree} is odd; only even degrees decompose here")
    n = f.degree // 2
    laps = [f]
    for _ in range(n):
        laps.append(laps[-1].laplacian())
    parts = [None] * (n + 1)
    for m in range(n, -1, -1):
        j = n - m
        acc = laps[m]
        for k in range(j):
            acc = acc - r_coefficient(n, f.d, m, k) * parts[k].mul_norm_power(j - k)
        parts[j] = acc * (1.0 / r_coefficient(n, f.d, m, j))
    return HarmonicDecomp(n=n, parts=parts)


# Kept as a name of its own for callers that import it.
decompose_matrix = decompose
