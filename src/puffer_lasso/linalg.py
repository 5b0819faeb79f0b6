"""Dense linear-algebra kernels: SVD, numerical rank, diag((X'X)^-1),
and the range guards every float64 product goes through.

Everything downstream (preconditioners, estimators, the solver) consumes
these routines. Matrices are plain 2-D float64 numpy arrays; all
operations are pure functions of their inputs, except
``multiply_in_place``, which writes its product over its first argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NumericalError, RankError

EPS = float(np.finfo(np.float64).eps)
#: the smallest normal float64; a squared norm below it has lost precision
TINY = float(np.finfo(np.float64).tiny)


def as_matrix(x) -> np.ndarray:
    """Validate and return a 2-D float64 matrix with finite entries."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise DataError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DataError("matrix contains NaN or Inf entries")
    return m


def as_vector(y, length: int | None = None) -> np.ndarray:
    """Validate and return a 1-D float64 vector with finite entries."""
    v = np.asarray(y, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise DataError("expected a nonempty vector")
    if length is not None and v.size != length:
        raise DataError(f"expected vector of length {length}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise DataError("vector contains NaN or Inf entries")
    return v


def as_design(x, y=None, name: str = "", needs: str | None = None):
    """Validated (X, Y), Y None when y is. A shape that fails ``needs``
    raises, naming ``name``: RankError for "n > p", DataError for "p >= n"."""
    m = as_matrix(x)
    n, p = m.shape
    v = None if y is None else as_vector(y, n)
    if needs == "n > p" and n <= p:
        raise RankError(f"{name} requires n > p, got n={n}, p={p}")
    if needs == "p >= n" and p < n:
        raise DataError(f"{name} requires p >= n, got n={n}, p={p}")
    return m, v


def require_scalar(name: str, value, sign: str | None = "nonnegative", error=ValueError):
    """value, if it is finite (an int always is, as a seed may be) and of
    ``sign`` ("nonnegative", "positive" or None); else ``error`` naming it."""
    if not isinstance(value, int) and not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")
    if sign == "nonnegative" and value < 0 or sign == "positive" and value <= 0:
        raise error(f"{name} must be {sign}, got {value}")
    return value


def require_descending(name: str, values, error=ValueError) -> None:
    """Raise ``error`` naming ``name`` at the first entry of ``values`` that
    is not strictly below the one before it."""
    for above, below in zip(values, values[1:]):
        if below >= above:
            raise error(f"{name} must be strictly descending, got {above} then {below}")


@dataclass(frozen=True)
class SvdFactors:
    """Skinny factors X = U diag(d) V' with d nonincreasing and nonnegative;
    U is n x k and V is p x k with k = min(n, p)."""

    u: np.ndarray
    d: np.ndarray
    v: np.ndarray
    rank_tol: float


#: the fewest rows of a block in ``svd``'s blocked route
_BLOCK_ROWS = 2048


def _block_rows(p: int) -> int:
    """B, the rows per block of a tall design with p columns."""
    return max(_BLOCK_ROWS, 8 * p)


def _row_blocks(n: int, p: int) -> list[int]:
    """Row offsets of the blocks ``svd`` factors an n x p matrix in: n // B
    blocks of B to 2B rows where n > p and that is at least two, else one."""
    k = max(n // _block_rows(p), 1) if n > p else 1
    return [i * n // k for i in range(k + 1)]


def svd(x) -> SvdFactors:
    """Skinny singular value decomposition of a dense matrix.

    A tall matrix of two or more row blocks is factored one block at a
    time (tall-skinny QR): QR of each block, QR of the stacked R factors,
    the SVD of the last p x p R, and U formed block by block in one n x p
    array, where each block's Q was kept. So it holds U and a block or two
    besides X, where ``np.linalg.svd`` holds three n x p arrays. Any other
    matrix takes one ``np.linalg.svd`` call.

    Raises NumericalError if the underlying iteration fails to converge
    (never silent NaN).
    """
    m = as_matrix(x)
    n, p = m.shape
    edges = _row_blocks(n, p)
    try:
        if len(edges) > 2:
            u, d, vt = _blocked_svd(m, edges)
        else:
            u, d, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(d))):
        raise NumericalError("SVD produced non-finite factors")
    tol = max(n, p) * EPS * (float(d[0]) if d.size else 0.0)
    return SvdFactors(u=u, d=d, v=vt.T, rank_tol=tol)


def _blocked_svd(m: np.ndarray, edges: list[int]):
    """(U, d, V') of a tall m whose row blocks start at ``edges``. A block
    with fewer rows than columns has a square Q and a wide R."""
    n, p = m.shape
    u = np.empty((n, p))
    spans = list(zip(edges, edges[1:]))
    rs = []
    for s, e in spans:
        q, r = np.linalg.qr(m[s:e])
        u[s:e, : q.shape[1]] = q
        rs.append(r)
    q, r = np.linalg.qr(np.concatenate(rs))
    w, d, vt = np.linalg.svd(r)
    q = q @ w  # the stacked R's Q rotated by R's left singular vectors
    row = 0
    for (s, e), r in zip(spans, rs):
        c = r.shape[0]
        u[s:e] = u[s:e, :c] @ q[row : row + c]
        row += c
    return u, d, vt


def _wide_svd(m: np.ndarray) -> SvdFactors:
    """U and d of a p >= n matrix through its n x n side (R-SVD): the R of
    the QR of X' gives X = R'Q', and the SVD R' = U D W' gives X = U D (QW)'.
    The factors' v is the n x n W, so X's V is never formed; test the rank
    with ``require_full_rank(f, shape=m.shape)``. Errors are ``svd``'s."""
    try:
        r = np.linalg.qr(m.T, mode="r")
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    if not np.all(np.isfinite(r)):
        raise NumericalError("SVD produced non-finite factors")
    return svd(r.T)


def multiply_in_place(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u @ w written over u, for an n x p u from ``svd`` and a p x p w, one
    of svd's row blocks at a time: the product needs no second n x p array.
    With one block it is the one product u @ w, to the bit."""
    edges = _row_blocks(*u.shape)
    for s, e in zip(edges, edges[1:]):
        u[s:e] = u[s:e] @ w
    return u


def rank_of(f: SvdFactors) -> int:
    """Numerical rank: count of singular values above f.rank_tol."""
    return int(np.count_nonzero(f.d > f.rank_tol))


def require_full_rank(f: SvdFactors, shape: tuple[int, int] | None = None) -> None:
    """Raise RankError naming the offending singular value if rank <
    min(n, p): the column rank for n > p, the row rank otherwise.

    ``shape`` is the (n, p) of the matrix that f factors where f.u is only
    a p x p rotation of its left factor; the tolerance is then the one
    ``svd`` of the n x p matrix would take."""
    n, p = shape or (f.u.shape[0], f.v.shape[0])
    if shape is not None:
        f = replace(f, rank_tol=max(n, p) * EPS * float(f.d[0]))
    kind, full = ("column", p) if n > p else ("row", n)
    r = rank_of(f)
    if r < full:
        raise RankError(
            f"matrix is {kind}-rank deficient: rank {r} < {full} {kind}s "
            f"(singular value {float(f.d[r]):.3e} <= tol {f.rank_tol:.3e})"
        )


def finite(name: str, compute):
    """compute(), or NumericalError naming ``name`` where its result leaves
    float64; min and max see NaN and inf without a boolean temporary."""
    with np.errstate(all="ignore"):
        out = compute()
    if not (np.isfinite(out.min()) and np.isfinite(out.max())):
        raise NumericalError(f"{name} overflows float64; rescale the data")
    return out


def require_resolved(m: np.ndarray, squares: np.ndarray, name: str = "X'X") -> None:
    """NumericalError naming ``name`` where a column of m has a nonzero
    entry but a squared norm (``squares``, the diagonal of m'm) below TINY:
    its products underflow, and a fit would read the column as zero.
    All-zero columns pass."""
    if squares.min() < TINY and np.any(m[:, squares < TINY]):
        raise NumericalError(f"{name} underflows float64; rescale the data")


def normal_equations(m: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X'X, X'Y) of a validated design, for fitting it once or many times;
    NumericalError where either leaves float64 (a fit would sweep NaN) or
    a nonzero column's squared norm underflows (it would fit as zero)."""
    pair = finite("X'X", lambda: m.T @ m), finite("X'Y", lambda: m.T @ v)
    require_resolved(m, pair[0].diagonal())
    return pair


def gram_inverse_diagonal(x) -> np.ndarray:
    """Diagonal of (X'X)^-1 for a full-column-rank design with n > p.

    Entry j is sum_k V_jk^2 / d_k^2; strictly positive whenever X has
    full column rank.
    """
    m, _ = as_design(x, name="gram_inverse_diagonal", needs="n > p")
    f = svd(m)
    require_full_rank(f)
    return _gram_inverse_diagonal(f)


def _gram_inverse_diagonal(f: SvdFactors) -> np.ndarray:
    """diag((X'X)^-1) = V^2 d^-2 from the factors of a full-column-rank X;
    NumericalError where d^2 or d^-2 leaves float64 (nu would be 0 or inf)."""
    square = finite("X'X", lambda: np.square(f.d))
    return np.square(f.v) @ finite("(X'X)^-1", lambda: 1.0 / square)
