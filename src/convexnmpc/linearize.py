"""Exact input-state linearization with a linear output.

For x+ = A x + g(x) b u, an output vector c with c'A^i b = 0 (i < n-1) and
c'A^(n-1) b = beta != 0 gives relative degree n. The coordinate change
xi = T x with rows c'A^i and the feedback u = Psi(x, v) turn the plant into
the linear system x+ = A_hat x + b_hat v expressed in the original states.
"""
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import (IllConditionedError, InvalidOutputVectorError,
                     UncontrollableError)
from .model import EPS_G, controllability_matrix

_COND_LIMIT = 1e12


def charpoly_coefficients(A):
    """Coefficients (a_0, ..., a_{n-1}) of det(lI - A) = l^n + sum a_i l^i.

    Faddeev-LeVerrier recurrence; exact up to roundoff and stable for the
    small dimensions used here.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    M = np.eye(n)
    for k in range(1, n + 1):
        AM = A @ M
        coeffs[n - k] = -np.trace(AM) / k
        M = AM + coeffs[n - k] * np.eye(n)
    return coeffs[:n]


def companion_pair(a, b0):
    """Companion matrix with last row -a and input vector (0,...,0,b0)."""
    n = len(a)
    At = np.zeros((n, n))
    if n > 1:
        At[:-1, 1:] = np.eye(n - 1)
    At[-1, :] = -np.asarray(a, dtype=float)
    bt = np.zeros(n)
    bt[-1] = float(b0)
    return At, bt


def compute_output_vector(A, b, beta_target):
    """Solve c' [b, Ab, ..., A^(n-1) b] = (0, ..., 0, beta_target).

    The solution is unique when (A, b) is controllable.
    """
    if beta_target == 0.0:
        raise ValueError("beta_target must be nonzero")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    K = controllability_matrix(A, b)
    s = np.linalg.svd(K, compute_uv=False)
    if s[0] == 0.0 or s[-1] < 1e-10 * s[0]:
        raise UncontrollableError(
            "controllability matrix is rank-deficient",
            singular_values=s.tolist())
    rhs = np.zeros(A.shape[0])
    rhs[-1] = float(beta_target)
    return np.linalg.solve(K.T, rhs)


@dataclass(frozen=True)
class LinearizationData:
    """Everything produced by the linear-output exact linearization."""

    c: np.ndarray
    T: np.ndarray
    T_inv: np.ndarray
    a: np.ndarray
    b0: float
    alpha: np.ndarray
    beta: float
    A_hat: np.ndarray
    b_hat: np.ndarray
    r: int

    def to_dict(self):
        return {
            "c": self.c.tolist(),
            "T": self.T.tolist(),
            "a": self.a.tolist(),
            "b0": self.b0,
            "alpha": self.alpha.tolist(),
            "beta": self.beta,
            "A_hat": self.A_hat.tolist(),
            "b_hat": self.b_hat.tolist(),
        }


def _validate_output_vector(A, b, c):
    rtol = 1e-9  # relative tolerance of the zero tests
    n = A.shape[0]
    Aib = b.copy()
    norm_c = np.linalg.norm(c)
    for i in range(n - 1):
        scale = max(norm_c * np.linalg.norm(Aib), 1e-30)
        if abs(c @ Aib) > rtol * scale:
            raise InvalidOutputVectorError(
                f"c'A^{i}b = {c @ Aib:.3e} is not zero (relative tol {rtol})",
                index=i)
        Aib = A @ Aib
    beta = float(c @ Aib)
    scale = max(norm_c * np.linalg.norm(Aib), 1e-30)
    if abs(beta) <= rtol * scale:
        raise InvalidOutputVectorError("c'A^(n-1)b vanishes; relative degree < n")
    return beta


def build_linearization(spec, c, b0=1.0, a=None):
    """Assemble the full linearization for a system spec and output vector c.

    a defaults to the characteristic-polynomial coefficients of A, which
    makes alpha = 0 (Cayley-Hamilton) and A_hat = A. Pass custom a to place
    the closed companion-form poles instead.
    """
    A, b = spec.A, spec.b
    n = A.shape[0]
    c = np.asarray(c, dtype=float)
    b0 = float(b0)
    if b0 == 0.0:
        raise ValueError("b0 must be nonzero")
    beta = _validate_output_vector(A, b, c)
    if a is None:
        a = charpoly_coefficients(A)
    else:
        a = np.asarray(a, dtype=float)
        if a.shape != (n,):
            raise ValueError(f"a must have length {n}")

    rows = [c]
    for _ in range(n - 1):
        rows.append(rows[-1] @ A)
    T = np.vstack(rows)
    cond = np.linalg.cond(T)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise IllConditionedError(
            f"state transformation condition number {cond:.3e} exceeds "
            f"{_COND_LIMIT:.0e}")
    lu = lu_factor(T)
    T_inv = lu_solve(lu, np.eye(n))

    # alpha' = c' (A^n + sum a_i A^i)
    poly_A = np.linalg.matrix_power(A, n).astype(float)
    Ai = np.eye(n)
    for ai in a:
        poly_A += ai * Ai
        Ai = Ai @ A
    alpha = poly_A.T @ c

    At, bt = companion_pair(a, b0)
    A_hat = T_inv @ At @ T
    b_hat = T_inv @ bt
    return LinearizationData(c=c, T=T, T_inv=T_inv, a=a, b0=b0, alpha=alpha,
                             beta=beta, A_hat=A_hat, b_hat=b_hat, r=n)


def v_of_u(lin, spec, x, u):
    """Artificial input corresponding to (x, u); defined for all x."""
    x = np.asarray(x, dtype=float)
    gx = float(spec.g.value(x))
    return (lin.beta * gx * float(u) + lin.alpha @ x) / lin.b0


def bound_interval(lin, spec, x):
    """Interval that b0 v - alpha.x must lie in at state x."""
    x = np.asarray(x, dtype=float)
    gx = float(spec.g.value(x))
    ends = np.array([lin.beta * gx * spec.u_lo, lin.beta * gx * spec.u_hi])
    return float(ends.min()), float(ends.max())


def u_of_v(lin, spec, x, v):
    """Linearizing feedback Psi(x, v); returns 0 where the gain vanishes."""
    x = np.asarray(x, dtype=float)
    gx = float(spec.g.value(x))
    if abs(gx) <= EPS_G:
        return 0.0
    return (lin.b0 * float(v) - lin.alpha @ x) / (lin.beta * gx)
