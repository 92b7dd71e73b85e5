"""Terminal ingredients: Riccati cost, LQR gain, and an invariant terminal set.

The terminal set is polyhedral (exact maximal admissible set) when the first
stage set is purely affine, and an invariant ellipsoidal sublevel set of the
Riccati cost otherwise. Both are certified against the stability axioms:
admissibility of the terminal controller, positive invariance, and cost
decrease by at least the stage cost.
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import (NoConvergenceError, NoFiniteDeterminationError,
                     NoPositiveLevelError, PreconditionError)
from .geometry import (Ellipsoid, Polytope, dedup_rows, reduce_rows,
                       rows_redundant, unit_directions)

DARE_TOL = 1e-12
DARE_MAX_ITER = 100_000


def dare_residual(P, A_hat, b_hat, Q, rho):
    """Infinity norm of the fixed-point defect of the Riccati equation."""
    PB = P @ b_hat
    gain = np.outer(PB, PB) / (rho + b_hat @ PB)
    return float(np.max(np.abs(A_hat.T @ (P - gain) @ A_hat - P + Q)))


def solve_dare(A_hat, b_hat, Q, rho, max_iter=DARE_MAX_ITER):
    """Fixed-point iteration P <- Q + A'(P - P b (rho + b'Pb)^-1 b'P) A.

    Starts from P = Q and stops when successive iterates agree to DARE_TOL
    in the infinity norm. Raises NoConvergenceError when the iteration
    stalls, which signals a non-stabilizable pair or indefinite data.
    """
    A_hat = np.atleast_2d(np.asarray(A_hat, dtype=float))
    b_hat = np.asarray(b_hat, dtype=float).reshape(-1)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    rho = float(rho)
    if rho <= 0:
        raise ValueError("rho must be positive")
    P = Q.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            PB = P @ b_hat
            P_next = Q + A_hat.T @ (P - np.outer(PB, PB)
                                    / (rho + b_hat @ PB)) @ A_hat
            P_next = 0.5 * (P_next + P_next.T)
            if not np.all(np.isfinite(P_next)):
                raise NoConvergenceError("Riccati iteration diverged")
            if np.max(np.abs(P_next - P)) < DARE_TOL:
                return P_next
            P = P_next
    raise NoConvergenceError(
        f"Riccati iteration did not converge in {max_iter} steps",
        last_delta=float(np.max(np.abs(P_next - P))))


def lqr_gain(P, A_hat, b_hat, rho):
    """Gain kappa of the terminal controller v = kappa.x."""
    PB = P @ b_hat
    return -(b_hat @ P @ A_hat) / (rho + b_hat @ PB)


def closed_loop(A_hat, b_hat, kappa):
    return A_hat + np.outer(b_hat, kappa)


@dataclass(frozen=True)
class TerminalIngredients:
    P: np.ndarray
    kappa: np.ndarray
    tset: object  # Polytope or Ellipsoid
    A_cl: np.ndarray

    @property
    def kind(self):
        return "polytope" if isinstance(self.tset, Polytope) else "ellipsoid"

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        return float(x @ self.P @ x)


def _stage_rows_under_gain(z1, kappa):
    """All affine rows of the first stage set, restricted to v = kappa.x."""
    if z1.kind != "affine":
        raise PreconditionError(
            "maximal admissible set needs a purely affine first stage set")
    n = kappa.shape[0]
    lift = np.vstack([np.eye(n), kappa])
    C = np.vstack([z1.lifted_C @ lift, z1.constraints.lift(lift).rows])
    d = np.concatenate([z1.lifted_d, z1.constraints.offsets])
    norms = np.linalg.norm(C, axis=1)
    keep = norms > 1e-14
    return C[keep] / norms[keep, None], d[keep] / norms[keep]


def maximal_admissible_set(A_cl, kappa, z1, max_power=500):
    """Largest set of states whose closed-loop trajectory stays admissible.

    Standard constraint-accumulation iteration: propagate the stage rows
    through powers of the closed loop until every next-power row is already
    implied (the row's support over the accumulated set's vertices,
    enumerated once per power).
    """
    Hz, dz = _stage_rows_under_gain(z1, kappa)
    acc_C, acc_d = dedup_rows(Hz.copy(), dz.copy())
    Ak = A_cl.copy()
    for _ in range(max_power):
        cand = Hz @ Ak
        norms = np.linalg.norm(cand, axis=1)
        keep = norms > 1e-14
        cand = cand[keep] / norms[keep, None]
        cand_d = dz[keep] / norms[keep]
        new = ~np.array([np.any((acc_C @ row > 1 - 1e-12)
                                & (acc_d <= off + 1e-15))
                         for row, off in zip(cand, cand_d)], dtype=bool)
        new[new] = ~rows_redundant(cand[new], cand_d[new], acc_C, acc_d)
        if not new.any():
            C, d = reduce_rows(acc_C, acc_d)
            return Polytope(C, d)
        acc_C = np.vstack([acc_C, cand[new]])
        acc_d = np.concatenate([acc_d, cand_d[new]])
        Ak = Ak @ A_cl
    raise NoFiniteDeterminationError(
        f"admissible-set iteration open after {max_power} powers",
        rows=int(acc_C.shape[0]))


N_LEVEL_SAMPLES = 10_000


def ellipsoidal_terminal(P, kappa, z1, A_cl, n_samples=N_LEVEL_SAMPLES, seed=0):
    """Largest sampled-certified invariant sublevel set {x'Px <= c}.

    Feasibility of a level is checked on deterministic boundary samples:
    state membership in the region, admissibility of the terminal controller
    there, and one-step invariance. Bisection to relative width 1e-6. The
    certificate is sample-based; downstream axiom checks reuse the same
    direction generator so both sides see identical points.
    """
    P = 0.5 * (np.asarray(P, dtype=float) + np.asarray(P, dtype=float).T)
    n = P.shape[0]
    w, V = np.linalg.eigh(P)
    if np.min(w) <= 0:
        raise ValueError("terminal cost matrix must be positive definite")
    half_inv = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    dirs = unit_directions(n_samples, n, seed) @ half_inv.T  # x'Px = 1 shell

    def feasible(level):
        X = np.sqrt(level) * dirs
        if np.any(X @ z1.region.C.T - z1.region.d > 1e-12):
            return False
        Z = np.hstack([X, (X @ kappa)[:, None]])
        if np.any(z1.constraints.values_batch(Z) > 1e-12):
            return False
        Xn = X @ A_cl.T
        return not np.any(
            np.einsum("ij,jk,ik->i", Xn, P, Xn) > level * (1 + 1e-12))

    lo = 1e-12
    if not feasible(lo):
        raise NoPositiveLevelError(
            "terminal controller is inadmissible arbitrarily close to 0")
    hi = max(lo, 1.0)
    for _ in range(80):
        if not feasible(hi):
            break
        lo = hi
        hi *= 2.0
    else:
        return Ellipsoid(P, lo)
    while (hi - lo) > 1e-6 * lo:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return Ellipsoid(P, lo * (1.0 - 1e-9))


def sample_terminal_set(tset, n_samples, seed):
    """Deterministic interior + boundary samples of a terminal set."""
    if isinstance(tset, Ellipsoid):
        boundary = tset.boundary_points(n_samples - n_samples // 2, seed)
        interior = tset.boundary_points(n_samples // 2, seed)
        scales = np.linspace(0.0, 0.97, interior.shape[0])[:, None]
        return np.vstack([boundary, interior * scales])
    dirs = unit_directions(n_samples, tset.dim, seed)
    pts = []
    for k, d in enumerate(dirs):
        bp = tset.ray_boundary_point(d)
        if bp is None:
            continue
        pts.append(bp if k % 2 == 0 else bp * (k % 97) / 97.0)
    return np.array(pts)


@dataclass
class AxiomReport:
    """Worst slacks of the three terminal axioms over sampled states.

    admissibility: stage-constraint value of (x, kappa.x); invariance:
    terminal-set violation of the successor; decrease: terminal-cost descent
    defect against the stage cost. All should be <= their tolerances.
    """

    worst_admissibility: float
    worst_invariance: float
    worst_decrease: float
    n_checked: int
    witnesses: list = field(default_factory=list)
    tol: float = 1e-8

    @property
    def ok(self):
        return (self.worst_admissibility <= self.tol
                and self.worst_invariance <= self.tol
                and self.worst_decrease <= self.tol)

    def to_dict(self):
        return {
            "worst_admissibility": self.worst_admissibility,
            "worst_invariance": self.worst_invariance,
            "worst_decrease": self.worst_decrease,
            "n_checked": self.n_checked,
            "ok": self.ok,
        }


def verify_terminal_axioms(ti, zsets, Q, rho, n_samples=2000, seed=0):
    """Check the three stability axioms on sampled terminal-set states."""
    z1 = zsets[0]
    X = sample_terminal_set(ti.tset, n_samples, seed)
    worst_a = worst_b = worst_c = -np.inf
    witnesses = []
    for x in X:
        v = float(ti.kappa @ x)
        z = np.concatenate([x, [v]])
        adm = max(float(np.max(z1.constraints.values(z))),
                  z1.region.violation(x))
        x_next = ti.A_cl @ x
        inv = ti.tset.violation(x_next)
        dec = (ti.cost(x_next) - ti.cost(x)
               + float(x @ Q @ x) + rho * v * v)
        if adm > max(worst_a, 1e-8) or inv > max(worst_b, 1e-8) \
                or dec > max(worst_c, 1e-8):
            witnesses.append((x.copy(), adm, inv, dec))
        worst_a = max(worst_a, adm)
        worst_b = max(worst_b, inv)
        worst_c = max(worst_c, dec)
    return AxiomReport(worst_admissibility=worst_a, worst_invariance=worst_b,
                       worst_decrease=worst_c, n_checked=len(X),
                       witnesses=witnesses[:10])


def build_terminal(spec, lin, zsets, Q, rho, kind="auto", seed=0):
    """Riccati cost, LQR gain, and a terminal set of the requested kind.

    kind 'auto' picks the exact polyhedral construction when the first stage
    set is affine and the ellipsoidal sublevel set otherwise.
    """
    P = solve_dare(lin.A_hat, lin.b_hat, Q, rho)
    kappa = lqr_gain(P, lin.A_hat, lin.b_hat, rho)
    A_cl = closed_loop(lin.A_hat, lin.b_hat, kappa)
    z1 = zsets[0]
    if kind == "auto":
        kind = "polytope" if z1.kind == "affine" else "ellipsoid"
    if kind == "polytope":
        tset = maximal_admissible_set(A_cl, kappa, z1)
    elif kind == "ellipsoid":
        tset = ellipsoidal_terminal(P, kappa, z1, A_cl, seed=seed)
    else:
        raise ValueError(f"unknown terminal kind {kind!r}")
    return TerminalIngredients(P=P, kappa=kappa, tset=tset, A_cl=A_cl)
