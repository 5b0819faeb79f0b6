"""The Puffer preconditioning transforms and the row-space map.

Three left-preconditioners built from the SVD X = U diag(d) V':

  puffer         F = U D^-1 U', for n > p full-column-rank designs;
                 F X = U V' has orthonormal columns.
  puffer_scaled  the same transform applied to X N, where N is the
                 diagonal right-scaling with N_jj = sqrt(nu_j) and nu the
                 diagonal of (X'X)^-1; aligns penalty strength with the
                 coefficient standard errors.
  puffer_tau     F_tau = U (D^2 + tau I)^-1/2 U', for p >= n designs;
                 bridges the penalized fit to ridge regression.

Only left multiplications are used: rotating the columns instead would
change the basis the penalty acts in. For n > p, F is never materialized
as an n x n matrix; it is applied through its factors, which is the same
map. For p >= n, F_tau is formed n x n, no larger than X, from the U and
d of the QR of X' and an n x n SVD; X's V is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass(frozen=True)
class PreconditionedPair:
    """Transformed design and response, with the transform's tau or
    N diagonal where it has one."""

    x_tilde: np.ndarray
    y_tilde: np.ndarray
    tau: float | None = None
    n_diag: np.ndarray | None = None


def puffer(x, y) -> PreconditionedPair:
    """Left-precondition (X, Y) -> (U V', U D^-1 U' Y) for n > p."""
    m, v = linalg.as_design(x, y, "puffer", "n > p")
    f = linalg.svd(m)
    linalg.require_full_rank(f)
    y_tilde = f.u @ ((f.u.T @ v) / f.d)
    return PreconditionedPair(linalg.multiply_in_place(f.u, f.v.T), y_tilde)


def puffer_scaled(x, y) -> PreconditionedPair:
    """Scaled transform: Puffer applied to X N, recording the N diagonal.

    X is factored once: X N = U (D V'N), and one p x p SVD D V'N = Q S W'
    gives X N = (U Q) S W'. So F X N = U (Q W') and F Y = U Q S^-1 Q'U'Y,
    with the p x p products taken first: neither X N nor U Q is built.
    Y~ is taken first; then X~ is written over U, as ``puffer`` does.
    """
    m, _ = linalg.as_design(x, name="puffer_scaled", needs="n > p")
    f = linalg.svd(m)
    linalg.require_full_rank(f)
    n_diag = np.sqrt(linalg._gram_inverse_diagonal(f))
    v = linalg.as_vector(y, m.shape[0])
    g = linalg.svd(f.d[:, None] * (f.v.T * n_diag))
    linalg.require_full_rank(g, shape=m.shape)
    y_tilde = f.u @ (g.u @ ((g.u.T @ (f.u.T @ v)) / g.d))
    x_tilde = linalg.multiply_in_place(f.u, g.u @ g.v.T)
    return PreconditionedPair(x_tilde, y_tilde, n_diag=n_diag)


def puffer_tau(x, y, tau: float) -> PreconditionedPair:
    """Generalized transform F_tau = U (D^2 + tau I)^-1/2 U' for p >= n.

    U and d come from linalg._wide_svd; X~ = F_tau X with the n x n F_tau.
    tau = 0 additionally requires full row rank, at the tolerance an SVD of
    the n x p X takes; a numerically tiny singular value then raises rather
    than being regularized silently.
    """
    m, v = linalg.as_design(x, y, "puffer_tau", "p >= n")
    linalg.require_scalar("tau", tau)
    f = linalg._wide_svd(m)
    if tau == 0.0:
        linalg.require_full_rank(f, shape=m.shape)
    shifted = linalg.finite("XX' + tau I", lambda: np.square(f.d) + tau)
    w = linalg.finite("(XX' + tau I)^-1/2", lambda: 1.0 / np.sqrt(shifted))
    uw = f.u * w
    y_tilde = uw @ (f.u.T @ v)
    return PreconditionedPair((uw @ f.u.T) @ m, y_tilde, tau=tau)


def rowspace_projector(x, tau: float):
    """v -> X'(XX' + tau I)^-1 X v, the map ``project_rowspace`` applies,
    with X factored once for every vector it projects.

    Building it checks nothing. Its first call runs ``project_rowspace``'s
    checks in their order (X, v, tau, the tau = 0 rank check, XX') and
    raises their records; once a call has passed them, later calls
    validate v alone. Every call takes the same products and solve as
    ``project_rowspace``, to the bit.
    """
    factored = None  # (X, XX' + tau I) once a call has passed the checks

    def project(v) -> np.ndarray:
        nonlocal factored
        if factored is None:
            m, _ = linalg.as_design(x, name="project_rowspace", needs="p >= n")
            vec = linalg.as_vector(v, m.shape[1])
            linalg.require_scalar("tau", tau)
            if tau == 0.0:
                linalg.require_full_rank(linalg._wide_svd(m), shape=m.shape)
            gram = linalg.finite("XX'", lambda: m @ m.T)
            linalg.require_resolved(m.T, gram.diagonal(), "XX'")
            factored = m, gram + tau * np.eye(m.shape[0])
        else:
            vec = linalg.as_vector(v, factored[0].shape[1])
        m, shifted = factored
        return m.T @ np.linalg.solve(shifted, m @ vec)

    return project


def project_rowspace(x, v, tau: float) -> np.ndarray:
    """Apply X'(XX' + tau I)^-1 X to v; at tau = 0 this projects onto the
    row space of X (and requires it to be full)."""
    return rowspace_projector(x, tau)(v)
