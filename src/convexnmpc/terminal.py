"""Terminal ingredients: Riccati cost, LQR gain, and an invariant terminal set.

The terminal set is polyhedral (exact maximal admissible set) when the first
stage set is purely affine, and an invariant ellipsoidal sublevel set of the
Riccati cost otherwise. Both are certified against the stability axioms:
admissibility of the terminal controller, positive invariance, and cost
decrease by at least the stage cost. Under v = kappa.x the decrease is a
quadratic form and an ellipsoid's invariance one eigenvalue (contraction):
matrix tests, with no sampling. Admissibility (for convex stage sets) and a
polytope's invariance are convex in x, so their worst lies at an extreme
point: exact at a polytope's vertices, and sampled on an ellipsoid's shell,
where the ridge constraints make the worst point a nonlinear problem.
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import (NoConvergenceError, NoFiniteDeterminationError,
                     NoPositiveLevelError, PreconditionError)
from .geometry import (Ellipsoid, Polytope, dedup_rows, reduce_rows,
                       rows_redundant, vertices)

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
    cons = z1.lift(np.vstack([np.eye(kappa.size), kappa]))
    C, d = cons.rows, cons.offsets
    norms = np.linalg.norm(C, axis=1)
    keep = norms > 1e-14
    return C[keep] / norms[keep, None], d[keep] / norms[keep]


def maximal_admissible_set(A_cl, kappa, z1, max_power=500):
    """Largest set of states whose closed-loop trajectory stays admissible.

    Standard constraint-accumulation iteration: propagate the stage rows
    through powers of the closed loop until every next-power row is already
    implied (the row's support over the accumulated set's vertices,
    enumerated once per power). Finite determination needs a stable closed
    loop (Gilbert & Tan, IEEE TAC 1991): spectral radius 1 or more raises.
    """
    radius = float(np.max(np.abs(np.linalg.eigvals(A_cl))))
    if radius >= 1.0:
        raise NoFiniteDeterminationError(
            f"closed loop not asymptotically stable (spectral radius "
            f"{radius:.6g})", spectral_radius=radius)
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


def contraction(ell, A_cl):
    """Smallest c with (A_cl x)' S (A_cl x) <= c x'Sx for every x, S the
    ellipsoid's shape: lambda_max(S^(-1/2) A_cl' S A_cl S^(-1/2)). The
    closed loop maps every sublevel set of S into itself iff c <= 1."""
    H = ell.half_inverse
    return float(np.linalg.eigvalsh(H @ A_cl.T @ ell.P_shape @ A_cl @ H)[-1])


def ellipsoidal_terminal(P, kappa, z1, A_cl, n_samples=N_LEVEL_SAMPLES, seed=0):
    """Largest invariant sublevel set {x'Px <= c} admissible on samples.

    Invariance does not depend on the level: it is the contraction test,
    made once (to 1e-12), and NoPositiveLevelError when it fails, as when
    P is not positive definite (no sublevel set is bounded). A level
    is admissible when the region and the stage constraints hold under
    v = kappa.x; for convex stage sets both are convex in x, so they are
    checked on deterministic samples of the shell x'Px = c only. Bisection
    to relative width 1e-6.
    """
    shell = Ellipsoid(P, 1.0)
    if np.linalg.eigvalsh(shell.P_shape)[0] <= 0:
        raise NoPositiveLevelError("terminal cost P is not positive definite")
    if contraction(shell, A_cl) > 1 + 1e-12:
        raise NoPositiveLevelError(
            "the closed loop does not contract the terminal cost, so no "
            "sublevel set is invariant")
    # blocks of 1,000 points keep each temporary small: one batch of all
    # made glibc return heap pages and fault them back in on every call
    blocks = np.array_split(shell.boundary_points(n_samples, seed),
                            max(1, n_samples // 1000))

    def feasible(level):
        for X in (np.sqrt(level) * U for U in blocks):
            if np.any(X @ z1.region.C.T - z1.region.d > 1e-12):
                return False
            Z = np.hstack([X, (X @ kappa)[:, None]])
            if np.any(z1.constraints.values_batch(Z) > 1e-12):
                return False
        return True

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


@dataclass
class AxiomReport:
    """Worst slacks of the three terminal axioms over the terminal set.

    admissibility: stage-constraint value of (x, kappa.x); invariance:
    terminal-set violation of the successor; decrease: terminal-cost descent
    defect against the stage cost. All should be <= their tolerances.
    n_checked counts the points where admissibility was evaluated, and
    witnesses holds up to ten of them, (x, adm, inv, dec), that exceed tol.
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
    """The three stability axioms over the terminal set (module docstring):
    decrease x'Dx, D = A_cl'PA_cl - P + Q + rho kappa kappa', is bounded by
    max(lambda_max(D), 0) times the set's largest |x|^2; admissibility is
    read at a polytope's vertices or at n_samples points of an ellipsoid's
    shell, drawn from seed."""
    z1, tset, kappa = zsets[0], ti.tset, ti.kappa
    D = ti.A_cl.T @ ti.P @ ti.A_cl - ti.P + Q + rho * np.outer(kappa, kappa)
    ellipsoid = isinstance(tset, Ellipsoid)
    X = (tset.boundary_points(n_samples, seed) if ellipsoid
         else vertices(tset.C, tset.d))
    Z = np.hstack([X, (X @ kappa)[:, None]])
    adm = np.max(z1.values_batch(Z), axis=1)
    inv = np.array([tset.violation(x) for x in X @ ti.A_cl.T])
    dec = np.einsum("ij,jk,ik->i", X, D, X)
    if ellipsoid:
        worst_inv = tset.level * (contraction(tset, ti.A_cl) - 1.0)
        radius2 = tset.level / float(np.linalg.eigvalsh(tset.P_shape)[0])
    else:
        worst_inv = float(np.max(inv))
        radius2 = float(np.max(np.sum(X * X, axis=1)))
    report = AxiomReport(
        worst_admissibility=float(np.max(adm)), worst_invariance=worst_inv,
        worst_decrease=max(float(np.linalg.eigvalsh(D)[-1]), 0.0) * radius2,
        n_checked=len(X))
    bad = (adm > report.tol) | (inv > report.tol) | (dec > report.tol)
    report.witnesses = list(zip(X[bad], adm[bad], inv[bad], dec[bad]))[:10]
    return report


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
