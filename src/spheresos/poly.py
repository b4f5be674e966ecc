"""Sparse homogeneous polynomial arithmetic, scalar and symmetric-matrix-valued.

Polynomials are stored as a map from exponent multi-indices to coefficients.
All inputs and results are homogeneous; the total degree is carried as
metadata so the zero polynomial keeps its degree.  Outside input is
validated term by term; results of the internal arithmetic are valid by
construction and skip the checks.

Evaluation is compiled: on first use a polynomial (or, for a matrix
polynomial, the stored upper triangle, one column per entry) becomes an
exponent matrix over its monomials and a coefficient matrix with one column
per polynomial, plus a second pair for the union of the monomials of its
first partials.  A batch of points is then evaluated with one power table
(powers of each variable that occurs, by repeated multiplication, no float
pow), one gathered product of each monomial's nonzero-exponent factors into
a (monomials x points) matrix and one matmul, for values and gradients
alike.  sup_norm_sphere's max and min searches share each step's gradient
evaluation and take the values from it by Euler's identity (min_sphere runs
the min search alone, on the same start points); their steps are
Barzilai-Borwein (secant) steps on the sphere, which use the change in the
Riemannian gradient as a curvature estimate and need no Hessian.  The compiled
form is cached in ``_arrays``; code that edits ``terms`` in place resets it
to None.  Scalar and matrix polynomials differ only in the eigenvalue read,
which each type owns: extremes() gives (low, high) per point (a scalar's
value twice, a matrix's extreme eigenvalues) and _extreme_step() the value
and gradient an ascent row follows; searches and node reads take one path.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Row chunk for batched monomial evaluation, sized to keep the (terms x points)
# work matrices and the power table a few tens of MB at most.
_EVAL_CHUNK_ENTRIES = 4_000_000


def _integers(values, what: str) -> tuple[int, ...]:
    """values as ints; one that is not integral (a JSON 2.7, inf) is
    refused, not truncated, with what naming them."""
    try:
        out = tuple(map(int, values))
    except (OverflowError, TypeError, ValueError):
        out = None
    if out != tuple(values):
        raise ValueError(f"{what} {list(values)} has an entry that is not an integer")
    return out


def _graded_lex_key(exps: tuple[int, ...]):
    return tuple(-e for e in exps)


def _partial_terms(terms: dict, i: int) -> dict:
    out = {}
    for e, c in terms.items():
        if e[i] > 0:
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
    return out


class _MonomialMap:
    """Linear map from a batch of points to several polynomials' values.

    ``exps`` (monomials x d) lists the union of the columns' monomials in
    graded-lex order and ``coefs`` (monomials x columns) their coefficients,
    so ``apply(X)`` is monomials(X) @ coefs, of shape (N, columns)."""

    __slots__ = ("exps", "coefs", "_vars", "_width", "_gather")

    def __init__(self, d: int, columns: list[dict]):
        keys = sorted(set().union(*columns), key=_graded_lex_key)
        row = {e: r for r, e in enumerate(keys)}
        self.exps = np.array(keys, dtype=np.int64).reshape(len(keys), d)
        self.coefs = np.zeros((len(keys), len(columns)))
        for col, terms in enumerate(columns):
            for e, c in terms.items():
                self.coefs[row[e], col] = c
        # Only variables that occur get rows in the power table, and each
        # monomial gathers only its nonzero-exponent factors, in variable
        # order: _gather[p, m] is the flattened table row of the p-th such
        # factor of monomial m, or row 0 (x^0 = 1) once it has no more.
        # Multiplying by 1.0 is exact, so the product is the same as over
        # every used variable.
        tops = self.exps.max(axis=0, initial=0)
        self._vars = np.flatnonzero(tops)
        self._width = int(tops.max(initial=0)) + 1
        used = self.exps[:, self._vars]
        flat = used + self._width * np.arange(self._vars.size)
        nonzero = used > 0
        order = np.argsort(~nonzero, axis=1, kind="stable")  # nonzero ones first
        rows = np.where(
            np.take_along_axis(nonzero, order, axis=1), np.take_along_axis(flat, order, axis=1), 0
        )
        npass = int(nonzero.sum(axis=1).max(initial=0))
        self._gather = np.ascontiguousarray(rows[:, :npass].T)

    def apply(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        nmon, ncol = self.coefs.shape
        if nmon == 0:
            return np.zeros((n, ncol))
        nv, width = self._vars.size, self._width
        out = np.empty((n, ncol))
        chunk = max(1, _EVAL_CHUNK_ENTRIES // max(nmon, nv * width))
        for lo in range(0, n, chunk):
            Xt = X[lo : lo + chunk].T[self._vars]
            if not len(self._gather):  # constants only
                mono = np.ones((nmon, Xt.shape[1]))
            else:
                # powers 0..top of each used variable by repeated multiplication
                table = np.empty((nv, width, Xt.shape[1]))
                table[:, 0] = 1.0
                table[:, 1:] = Xt[:, None, :]
                np.multiply.accumulate(table, axis=1, out=table)
                table = table.reshape(nv * width, Xt.shape[1])
                mono = table[self._gather[0]]
                for rows in self._gather[1:]:
                    mono *= table[rows]
            out[lo : lo + chunk] = mono.T @ self.coefs
        return out


class _Compiled:
    """Values and first partials of polynomials sharing d, as two monomial maps.

    Column c of ``values`` is polynomial c; column a * ncol + c of
    ``partials`` is its partial derivative in variable a."""

    __slots__ = ("d", "ncol", "values", "partials")

    def __init__(self, d: int, columns: list[dict]):
        self.d = d
        self.ncol = len(columns)
        self.values = _MonomialMap(d, columns)
        self.partials = _MonomialMap(
            d, [_partial_terms(terms, a) for a in range(d) for terms in columns]
        )

    def eval(self, X: np.ndarray) -> np.ndarray:
        """Shape (N, ncol)."""
        return self.values.apply(X)

    def gradient(self, X: np.ndarray) -> np.ndarray:
        """Shape (N, d, ncol)."""
        return self.partials.apply(X).reshape(X.shape[0], self.d, self.ncol)


def _as_points(X, d: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"points have shape {X.shape}, expected (N, {d})")
    return X


@dataclass
class SpherePoint:
    """A point of S^{d-1}; the norm is validated at construction."""

    d: int
    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.shape != (self.d,):
            raise ValueError(f"expected {self.d} coordinates, got shape {self.coords.shape}")
        nrm = float(np.linalg.norm(self.coords))
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"not a unit vector: |norm - 1| = {abs(nrm - 1.0):.3e}")


class Poly:
    """Sparse homogeneous polynomial in d real variables.

    terms maps exponent tuples (length d, entries summing to ``degree``) to
    float coefficients; exact zeros are not stored.
    """

    __slots__ = ("d", "degree", "terms", "_arrays")

    def __init__(self, d: int, degree: int, terms: dict[tuple[int, ...], float]):
        if d < 1:
            raise ValueError("variable count must be >= 1")
        if degree < 0:
            raise ValueError("degree must be >= 0")
        clean = {}
        for exps, coef in terms.items():
            exps = _integers(exps, "multi-index")
            if len(exps) != d:
                raise ValueError(f"multi-index {exps} has length {len(exps)}, expected {d}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if sum(exps) != degree:
                raise ValueError(f"multi-index {exps} sums to {sum(exps)}, expected {degree}")
            coef = float(coef)
            if not math.isfinite(coef):
                raise ValueError(f"coefficient {coef!r} of {exps} is not finite")
            if coef != 0.0:
                clean[exps] = clean.get(exps, 0.0) + coef
        self.d = d
        self.degree = degree
        self.terms = {e: c for e, c in clean.items() if c != 0.0}
        self._arrays = None

    @classmethod
    def _trusted(cls, d: int, degree: int, terms: dict) -> "Poly":
        """Result of internal arithmetic: int-tuple exponents of the right
        length and degree and float coefficients by construction, so only
        the exact zeros are dropped."""
        out = cls.__new__(cls)
        out.d = d
        out.degree = degree
        out.terms = {e: c for e, c in terms.items() if c != 0.0}
        out._arrays = None
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, d: int, degree: int) -> "Poly":
        return cls(d, degree, {})

    @classmethod
    def constant(cls, d: int, value: float) -> "Poly":
        return cls(d, 0, {(0,) * d: value})

    @classmethod
    def monomial(cls, d: int, exps, coef: float = 1.0) -> "Poly":
        exps = _integers(exps, "multi-index")
        return cls(d, sum(exps), {exps: coef})

    def identity_like(self, degree: int, value: float) -> "Poly":
        """value * |x|^degree (degree even), the scalar identity embedding."""
        return Poly.constant(self.d, value).mul_norm_power(degree // 2)

    @classmethod
    def norm_squared(cls, d: int) -> "Poly":
        return cls.constant(d, 1.0).mul_norm_power(1)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        if not self.terms:
            return other
        if not other.terms:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add homogeneous polynomials of different degree")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0.0) + c
        return Poly._trusted(self.d, self.degree, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.d != other.d:
                raise ValueError("dimension mismatch")
            terms: dict[tuple[int, ...], float] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(map(operator.add, e1, e2))
                    terms[e] = terms.get(e, 0.0) + c1 * c2
            return Poly._trusted(self.d, self.degree + other.degree, terms)
        scale = float(other)
        return Poly._trusted(self.d, self.degree, {e: c * scale for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "Poly":
        return self * -1.0

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.d == other.d
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"Poly(d={self.d}, degree={self.degree}, nterms={len(self.terms)})"

    def sorted_terms(self):
        """Terms in graded-lex order (canonical for serialization)."""
        return sorted(self.terms.items(), key=lambda item: _graded_lex_key(item[0]))

    def max_abs_coef(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # -- calculus -----------------------------------------------------------

    def partial(self, i: int) -> "Poly":
        """Partial derivative with respect to variable i."""
        return Poly._trusted(self.d, max(self.degree - 1, 0), _partial_terms(self.terms, i))

    def laplacian(self) -> "Poly":
        """Sum of second partials; degree drops by 2 (zero for degree < 2)."""
        if self.degree < 2:
            return Poly.zero(self.d, 0)
        terms: dict[tuple[int, ...], float] = {}
        for e, c in self.terms.items():
            for i in range(self.d):
                if e[i] >= 2:
                    ne = list(e)
                    ne[i] -= 2
                    key = tuple(ne)
                    terms[key] = terms.get(key, 0.0) + c * e[i] * (e[i] - 1)
        return Poly._trusted(self.d, self.degree - 2, terms)

    def mul_norm_power(self, j: int) -> "Poly":
        """Multiply by |x|^(2j), expanded; degree grows by 2j."""
        if j < 0:
            raise ValueError("power must be >= 0")
        # |x|^2 = sum_i x_i^2: each round shifts every term by 2 in each
        # variable, in the order a product with norm_squared would take.
        terms = self.terms
        for _ in range(j):
            out: dict[tuple[int, ...], float] = {}
            for e, c in terms.items():
                for i in range(self.d):
                    ne = list(e)
                    ne[i] += 2
                    key = tuple(ne)
                    out[key] = out.get(key, 0.0) + c
            terms = {e: c for e, c in out.items() if c != 0.0}
        return Poly._trusted(self.d, self.degree + 2 * j, terms)

    # -- evaluation ---------------------------------------------------------

    def _compiled(self) -> _Compiled:
        if self._arrays is None:
            self._arrays = _Compiled(self.d, [self.terms])
        return self._arrays

    def eval(self, x) -> float:
        """Exact polynomial evaluation at a single point."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.d},)")
        return float(self.eval_many(x[None, :])[0])

    __call__ = eval

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, d) batch of points; returns shape (N,)."""
        return self._compiled().eval(_as_points(X, self.d))[:, 0]

    def gradient_many(self, X: np.ndarray) -> np.ndarray:
        """Gradients at an (N, d) batch of points; returns shape (N, d)."""
        return self._compiled().gradient(_as_points(X, self.d))[:, :, 0]

    def extremes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(low, high) at an (N, d) batch: for a scalar, the values twice."""
        values = self.eval_many(X)
        return values, values

    def _extreme_step(self, values, grads, sign):
        """The value a row's ascent follows and its gradient: for a scalar, these."""
        return values, grads

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "degree": self.degree,
            "terms": [
                {"exp": list(e), "coef": c} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Poly":
        try:
            d, degree = _integers((data["d"], data["degree"]), "(d, degree)")
            terms = {}
            for t in data["terms"]:
                if (e := tuple(t["exp"])) in terms:
                    raise ValueError(f"malformed polynomial JSON: exponent {list(e)} listed twice")
                terms[e] = float(t["coef"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial JSON: {exc}") from exc
        return cls(d, degree, terms)


class MatPoly:
    """Symmetric k x k matrix with homogeneous polynomial entries.

    Only the upper triangle is stored; entry (i, j) with i <= j represents
    both (i, j) and (j, i).  All entries share d and degree.
    """

    __slots__ = ("d", "k", "degree", "entries", "_arrays")

    def __init__(self, d: int, k: int, degree: int, entries: dict[tuple[int, int], Poly]):
        if k < 1:
            raise ValueError("matrix size must be >= 1")
        clean = {}
        for (i, j), p in entries.items():
            if not 0 <= i <= j < k:
                raise ValueError(f"bad entry index ({i}, {j}) for size {k}")
            if p.d != d:
                raise ValueError("entry dimension mismatch")
            if p.terms and p.degree != degree:
                raise ValueError("entry degree mismatch")
            if p.terms:
                clean[(i, j)] = p
        self.d = d
        self.k = k
        self.degree = degree
        self.entries = clean
        self._arrays = None

    @classmethod
    def identity(cls, d: int, k: int, degree: int, scale: float = 1.0) -> "MatPoly":
        """scale * |x|^degree * I as a homogeneous MatPoly (degree even)."""
        if degree % 2 != 0:
            raise ValueError("identity embedding needs even degree")
        base = Poly.constant(d, scale).mul_norm_power(degree // 2)
        return cls(d, k, degree, {(i, i): base for i in range(k)})

    def identity_like(self, degree: int, value: float) -> "MatPoly":
        """value * |x|^degree * I at this polynomial's d and k."""
        return MatPoly.identity(self.d, self.k, degree, value)

    @classmethod
    def diagonal(cls, polys: list[Poly]) -> "MatPoly":
        d = polys[0].d
        degree = polys[0].degree
        return cls(d, len(polys), degree, {(i, i): p for i, p in enumerate(polys)})

    def entry(self, i: int, j: int) -> Poly:
        if i > j:
            i, j = j, i
        return self.entries.get((i, j), Poly.zero(self.d, self.degree))

    def __add__(self, other: "MatPoly") -> "MatPoly":
        if (self.d, self.k) != (other.d, other.k):
            raise ValueError("shape mismatch")
        keys = set(self.entries) | set(other.entries)
        degree = self.degree if self.entries or not other.entries else other.degree
        return MatPoly(
            self.d, self.k, degree,
            {key: self.entry(*key) + other.entry(*key) for key in keys},
        )

    def __sub__(self, other: "MatPoly") -> "MatPoly":
        return self + (other * -1.0)

    def __mul__(self, scalar) -> "MatPoly":
        return MatPoly(
            self.d, self.k, self.degree,
            {key: p * float(scalar) for key, p in self.entries.items()},
        )

    __rmul__ = __mul__

    def __repr__(self):
        return f"MatPoly(d={self.d}, k={self.k}, degree={self.degree}, nentries={len(self.entries)})"

    def laplacian(self) -> "MatPoly":
        return MatPoly(
            self.d, self.k, max(self.degree - 2, 0),
            {key: p.laplacian() for key, p in self.entries.items()},
        )

    def mul_norm_power(self, j: int) -> "MatPoly":
        return MatPoly(
            self.d, self.k, self.degree + 2 * j,
            {key: p.mul_norm_power(j) for key, p in self.entries.items()},
        )

    def max_abs_coef(self) -> float:
        return max((p.max_abs_coef() for p in self.entries.values()), default=0.0)

    def eval(self, x) -> np.ndarray:
        """Symmetric k x k value at a single point."""
        return self.eval_many(np.asarray(x, dtype=float)[None, :])[0]

    __call__ = eval

    def _compiled(self) -> tuple[_Compiled, np.ndarray, np.ndarray]:
        # One column per stored (i, j), i <= j, in sorted order.
        if self._arrays is None:
            keys = sorted(self.entries)
            rows = np.array([i for i, _ in keys], dtype=np.int64)
            cols = np.array([j for _, j in keys], dtype=np.int64)
            compiled = _Compiled(self.d, [self.entries[key].terms for key in keys])
            self._arrays = (compiled, rows, cols)
        return self._arrays

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        """Values at an (N, d) batch; returns shape (N, k, k), symmetric.

        Each stored entry is written to both (i, j) and (j, i), so the
        symmetry is exact."""
        X = _as_points(X, self.d)
        compiled, rows, cols = self._compiled()
        vals = compiled.eval(X)
        out = np.zeros((X.shape[0], self.k, self.k))
        out[:, rows, cols] = vals
        out[:, cols, rows] = vals
        return out

    def gradient_many(self, X: np.ndarray) -> np.ndarray:
        """Partial derivatives at an (N, d) batch; returns shape (N, d, k, k),
        entry [n, a] being the symmetric matrix dF/dx_a at point n."""
        X = _as_points(X, self.d)
        compiled, rows, cols = self._compiled()
        grads = compiled.gradient(X)
        out = np.zeros((X.shape[0], self.d, self.k, self.k))
        out[:, :, rows, cols] = grads
        out[:, :, cols, rows] = grads
        return out

    def extremes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lowest, highest) eigenvalue at each point of an (N, d) batch."""
        w = np.linalg.eigvalsh(self.eval_many(X))
        return w[:, 0], w[:, -1]

    def _extreme_step(self, values, grads, sign):
        """Per row, the top eigenvalue of ``values`` (N, k, k) if its sign is
        positive, else the bottom one, and its gradient v^T (dF/dx_a) v."""
        w, V = np.linalg.eigh(values)
        rows = np.arange(len(values))
        pick = np.where(sign > 0, self.k - 1, 0)
        vec = V[rows, :, pick]
        return w[rows, pick], np.einsum("naij,ni,nj->na", grads, vec, vec)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "degree": self.degree,
            "entries": [
                {"i": i, "j": j, "terms": self.entries[(i, j)].to_dict()["terms"]}
                for (i, j) in sorted(self.entries)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MatPoly":
        try:
            d, k, degree = _integers((data["d"], data["k"], data["degree"]), "(d, k, degree)")
            entries = {}
            for ent in data["entries"]:
                if (key := _integers((ent["i"], ent["j"]), "entry (i, j)")) in entries:
                    raise ValueError(f"malformed matrix polynomial JSON: entry {key} listed twice")
                entries[key] = Poly.from_dict({"d": d, "degree": degree, "terms": ent["terms"]})
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed matrix polynomial JSON: {exc}") from exc
        return cls(d, k, degree, entries)


def from_dict(data) -> Poly | MatPoly:
    """A polynomial from its JSON object: a MatPoly when it has "entries",
    a Poly otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"malformed polynomial JSON: expected an object, "
                         f"got {type(data).__name__}")
    return (MatPoly if "entries" in data else Poly).from_dict(data)


# ---------------------------------------------------------------------------
# Sphere sampling and sup-norm estimation
# ---------------------------------------------------------------------------

def sample_sphere_array(d: int, count: int, seed: int) -> np.ndarray:
    """Uniform points on S^{d-1} as an (count, d) array; deterministic in seed."""
    if d < 1 or count < 1:
        raise ValueError("d and count must be >= 1")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((count, d))
    norms = np.linalg.norm(X, axis=1)
    bad = norms < 1e-100
    if bad.any():  # pragma: no cover - probability zero in practice
        X[bad] = 0.0
        X[bad, 0] = 1.0
        norms[bad] = 1.0
    return X / norms[:, None]


def sample_sphere(d: int, count: int, seed: int) -> list[SpherePoint]:
    """Uniform SpherePoint samples via normalized Gaussian vectors."""
    return [SpherePoint(d, row) for row in sample_sphere_array(d, count, seed)]


@dataclass
class SupNormEstimate:
    """Multistart estimate of the range of a polynomial on the sphere.

    max_est / min_est are inner bounds (max_est <= true max, min_est >= true
    min), each a direct evaluation at its arg point.  A restart has converged
    when both its ascent to the maximum and its descent to the minimum
    stopped before the iteration cap: with a negligible Riemannian gradient,
    or at the rounding floor (a failed step whose predicted gain is within
    rounding of the values, or a collapsed step).  converged_restarts counts
    them, converged says that all of them did, and floor_restarts counts the
    converged restarts with at least one side stopped at the rounding floor.
    """

    max_est: float
    min_est: float
    argmax: SpherePoint
    argmin: SpherePoint
    converged: bool
    restarts: int
    converged_restarts: int
    floor_restarts: int = 0


# A failed trial step whose predicted first-order gain step * |grad_R|^2 is
# at most this many units of eps * max|value| cannot change a value beyond
# rounding, so the row stops there.
_FLOOR_ULPS = 8.0

# Iteration cap and gradient tolerance of the multistart searches.
_ASCENT_ITERS = 200
_ASCENT_GRAD_TOL = 1e-8


def _project_rows(X: np.ndarray) -> np.ndarray:
    return X / np.linalg.norm(X, axis=1)[:, None]


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, d) arrays."""
    return np.einsum("ij,ij->i", A, B)


def _tangent(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Riemannian gradients: each row of G minus its component along X's unit row."""
    return G - _rowdot(G, X)[:, None] * X


def _euler_values(target: Poly | MatPoly, X: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Values at X from the gradients there, by Euler's identity
    x . grad f(x) = degree * f(x); a constant is evaluated directly."""
    if target.degree == 0:
        return target.eval_many(X)
    return np.einsum("na,na...->n...", X, grads) / target.degree


def _ascend(value_grad, X0: np.ndarray, sign: np.ndarray, iters: int, grad_tol: float):
    """Batched Riemannian gradient ascent on the sphere with secant steps.

    value_grad maps an (R, d) batch and its per-row signs s to the values of
    s * f (R,) and their euclidean gradients (R, d), so a row with s = -1
    descends.  Each row is an independent restart; moves are accepted only on
    strict improvement, so per-restart trajectories are monotone.  A row
    moves from x to the projection of x + step * grad_R.  After an accepted
    move its next step is the Barzilai-Borwein step of the move, with
    s = x_new - x_old and y the change in grad_R: |s|^2 / (-s.y) and
    (-s.y) / |y|^2 on alternate batch steps, or 1.3 times the last step
    when -s.y <= 0 (no concave curvature seen); the first step is 0.25 and
    a rejected step halves.  Each row keeps its grad_R and |grad_R|^2, which
    change only when it moves and come from the trial batch's gradients, and
    each step evaluates only the rows still moving.  A row stops when its
    Riemannian gradient is below grad_tol, or at the rounding floor: a
    rejected step whose predicted gain step * |grad_R|^2 is at most
    _FLOOR_ULPS * eps * S, with S the largest |value| in the batch, or a
    step shrunk to 1e-14.  Returns the final points and two per-row flags:
    stopped by the gradient, and stopped at the rounding floor.
    """
    X = X0.copy()
    v, G = value_grad(X, sign)
    Gr = _tangent(G, X)
    gn2 = _rowdot(Gr, Gr)
    step = np.full(X.shape[0], 0.25)
    small_grad = gn2 <= grad_tol**2
    floor = np.zeros(X.shape[0], dtype=bool)
    floor_ulp = _FLOOR_ULPS * np.finfo(float).eps
    active = np.flatnonzero(~small_grad)
    for it in range(iters):
        if active.size == 0:
            break
        x, g, h = X.take(active, axis=0), Gr.take(active, axis=0), step.take(active)
        Xt = _project_rows(x + h[:, None] * g)
        vt, Gt = value_grad(Xt, sign.take(active))
        better = vt > v.take(active)
        stuck = ~better & (h * gn2.take(active) <= floor_ulp * np.abs(v).max())
        Grt = _tangent(Gt, Xt)
        gt2 = _rowdot(Grt, Grt)
        s, y = Xt - x, Grt - g
        curv = -_rowdot(s, y)  # > 0 where the secant sees concave curvature
        num, den = (_rowdot(s, s), curv) if it % 2 == 0 else (curv, _rowdot(y, y))
        h = np.where(better, np.divide(num, den, out=1.3 * h, where=curv > 0), 0.5 * h)
        small = better & (gt2 <= grad_tol**2)
        step[active] = h
        floor[active] = stuck
        small_grad[active] = small
        moved = active[better]
        X[moved] = Xt[better]
        v[moved] = vt[better]
        Gr[moved] = Grt[better]
        gn2[moved] = gt2[better]
        active = active[~(small | stuck | (h <= 1e-14))]
    floor |= ~small_grad & (step <= 1e-14)
    return X, small_grad, floor


def _multistart(target: Poly | MatPoly, starts: tuple[np.ndarray, ...],
                signs: tuple[float, ...], iters: int, grad_tol: float) -> list[tuple]:
    """_ascend from each block of start rows in ``starts`` on the side of its
    sign in ``signs`` (+1 climbs to the maximum, -1 descends to the minimum),
    as one batch of all the rows.  Each step makes one gradient evaluation
    and takes the values from it by Euler's identity; the target's
    _extreme_step picks what a row follows (for a matrix, the extreme
    eigenvalue on its side).  Returns, per block, the values (extremes) at
    the final points, evaluated once directly, the final points, whether
    each row stopped before the iteration cap, and whether it stopped at the
    rounding floor."""
    sizes = [len(X0) for X0 in starts]
    sign = np.repeat(signs, sizes)

    def value_grad(X, sign):
        grads = target.gradient_many(X)
        vals, grads = target._extreme_step(_euler_values(target, X, grads), grads, sign)
        return sign * vals, sign[:, None] * grads

    X, small_grad, floor = _ascend(value_grad, np.concatenate(starts), sign, iters, grad_tol)
    low, high = target.extremes(X)
    vals = np.where(sign > 0, high, low)
    cuts = np.cumsum(sizes)[:-1]
    return list(zip(*(np.split(a, cuts) for a in (vals, X, small_grad | floor, floor))))


def _start_rows(d: int, restarts: int, seed: int) -> np.ndarray:
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    return sample_sphere_array(d, restarts, seed)


def _sphere_point(x: np.ndarray) -> SpherePoint:
    return SpherePoint(x.size, _project_rows(x[None, :])[0])


def sup_norm_sphere(
    target: Poly | MatPoly,
    restarts: int = 64,
    seed: int = 0,
    iters: int = _ASCENT_ITERS,
    grad_tol: float = _ASCENT_GRAD_TOL,
) -> SupNormEstimate:
    """Estimate max / min of a polynomial (or of the eigenvalue range of a
    matrix polynomial) over the unit sphere by multistart projected gradient
    ascent with Barzilai-Borwein (secant) steps, see _ascend.  Deterministic
    in (restarts, seed), and the start points for ``restarts = r`` are a
    prefix of those for ``restarts = r + 1``, so max_est is non-decreasing
    in restarts (up to the rounding floor, whose scale is the batch's
    largest |value|).  The max and min searches run as one batch of
    2 * restarts rows (see _multistart); max_est / min_est are picked from
    the direct values at the final points.  Estimates are not certified."""
    X0 = _start_rows(target.d, restarts, seed)
    (vmax, Xmax, done_max, floor_max), (vmin, Xmin, done_min, floor_min) = _multistart(
        target, (X0, X0), (1.0, -1.0), iters, grad_tol)
    done = done_max & done_min
    at_floor = done & (floor_max | floor_min)

    imax = int(np.argmax(vmax))
    imin = int(np.argmin(vmin))
    converged_restarts = int(np.count_nonzero(done))
    return SupNormEstimate(
        max_est=float(vmax[imax]),
        min_est=float(vmin[imin]),
        argmax=_sphere_point(Xmax[imax]),
        argmin=_sphere_point(Xmin[imin]),
        converged=converged_restarts == restarts,
        restarts=restarts,
        converged_restarts=converged_restarts,
        floor_restarts=int(np.count_nonzero(at_floor)),
    )


@dataclass
class MinEstimate:
    """Multistart estimate of the minimum alone: the descent half of a
    SupNormEstimate, with its counts taken over the descents only."""

    min_est: float
    argmin: SpherePoint
    converged: bool
    restarts: int
    converged_restarts: int
    floor_restarts: int


def min_sphere(
    target: Poly | MatPoly,
    restarts: int = 64,
    seed: int = 0,
    iters: int = _ASCENT_ITERS,
    grad_tol: float = _ASCENT_GRAD_TOL,
) -> MinEstimate:
    """The minimum search of sup_norm_sphere without its maximum search:
    ``restarts`` descent rows from the same start points.  min_est agrees
    with sup_norm_sphere's up to the rounding floor, whose scale is now the
    largest |value| among the descents.  Not certified."""
    ((vals, X, done, floor),) = _multistart(
        target, (_start_rows(target.d, restarts, seed),), (-1.0,), iters, grad_tol)
    imin = int(np.argmin(vals))
    converged_restarts = int(np.count_nonzero(done))
    return MinEstimate(
        min_est=float(vals[imin]),
        argmin=_sphere_point(X[imin]),
        converged=converged_restarts == restarts,
        restarts=restarts,
        converged_restarts=converged_restarts,
        floor_restarts=int(np.count_nonzero(done & floor)),
    )
