"""SIC fiducials: the quartic overlap objective, seeded random-restart
search on the unit sphere, orbit verification, and the exact
dimension-4 fiducial with its overlap-phase fingerprint."""

import functools
import math

import numpy as np

from . import clifford, gf, weyl
from .tol import TOL_MATRIX, TOL_SEARCH, TOL_SIC_GRAM

_FTOL = 1e-30
_STALL_WINDOW = 100
_STALL_RTOL = 1e-12
_MAX_ITER = 50000
_POLISH_TRIGGER = 1e-8


def _check_unit(psi):
    # gate loose enough for finite-difference probes of the raw quartic;
    # written so that a NaN norm fails it
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-5:
        raise ValueError("psi is not a unit vector")
    return psi


def f_sic(psi) -> float:
    """Sum over (r, s) != (0, 0) of (|<psi|D_{r,s}|psi>|^2 - 1/(N+1))^2;
    zero exactly when the displacement orbit of psi is a SIC."""
    psi = _check_unit(psi)
    return _value(psi, _gathers(psi.size))


def f_sic_grad(psi) -> np.ndarray:
    """Gradient of the raw quartic, encoded as a complex vector:
    df/dRe(psi_j) is the real part of entry j, df/dIm(psi_j) the
    imaginary part."""
    psi = _check_unit(psi)
    return _value_grad(psi, _gathers(psi.size))[1]


@functools.lru_cache(maxsize=16)
def _gathers(n):
    """(rows, conj(vals), cols, vals_t), cached: D_k^dag psi = conj(vals[k])
    psi[rows[k]] and D_k psi = vals_t[k] psi[cols[k]], cols[k] = rows[k]^-1."""
    # sic_verify holds the N^2 x N^2 Gram of the orbit, 16 MB at N = 32
    if not 2 <= n <= 32:
        raise ValueError("sic dimension must be between 2 and 32")
    rows, vals = weyl._table_form(n)
    cols = np.argsort(rows, axis=1)
    return rows, vals.conj(), cols, np.take_along_axis(vals, cols, axis=1)


def _overlaps(psi, form):
    """D_k psi, the overlaps c_k = <psi|D_k|psi> and the objective's terms
    d_k = |c_k|^2 - 1/(N+1), with d_0 = 0 for the identity."""
    dpsi = form[3] * psi[form[2]]
    c = dpsi @ psi.conj()
    d = np.abs(c) ** 2 - 1.0 / (psi.size + 1)
    d[0] = 0.0
    return dpsi, c, d


def _value(psi, form):
    d = _overlaps(psi, form)[2]
    return float(d @ d)


def _value_grad(psi, form):
    dpsi, c, d = _overlaps(psi, form)
    hpsi = form[1] * psi[form[0]]  # D_k^dag psi
    return float(d @ d), 4.0 * ((d * c.conj()) @ dpsi + (d * c) @ hpsi)


def descend(psi, value, value_grad):
    """Projected gradient descent on the unit sphere with a BB1 step and
    Armijo backtracking, for any objective invariant under a global
    phase.  value(psi) returns f; value_grad(psi) returns f and its
    gradient in f_sic_grad's complex encoding.  Returns psi, f and why
    descent stopped:
      "trigger"      f fell below _POLISH_TRIGGER;
      "no_decrease"  the projected gradient is zero, or the step the line
                     search accepted does not strictly lower f (at a local
                     minimum the Armijo test cannot ask for less than one
                     ulp of f); that step is discarded;
      "stall"        f fell by at most _STALL_RTOL relative over
                     _STALL_WINDOW steps;
      "line_search"  60 halvings found no Armijo step;
      "cap"          _MAX_ITER steps.
    "no_decrease" acts only on a step that leaves f unchanged or higher.
    Converging restarts lower f strictly at every step (checked on 544
    restarts at n = 3..12), so they leave through "trigger" on the same
    path as without that rule."""
    f, g = value_grad(psi)
    step = 1.0
    prev = None
    f_ref, i_ref = f, 0
    for it in range(_MAX_ITER):
        if f < _POLISH_TRIGGER:
            return psi, f, "trigger"
        gt = g - np.vdot(psi, g).real * psi
        gn2 = float(np.vdot(gt, gt).real)
        if gn2 == 0.0:
            return psi, f, "no_decrease"
        if prev is not None:
            s = psi - prev[0]
            y = g - prev[1]
            sy = float(np.vdot(s, y).real)
            if sy > 0.0:
                step = min(max(float(np.vdot(s, s).real) / sy, 1e-8), 1e3)
            else:
                step = min(step * 2.0, 1e3)
        eta = step
        for _ in range(60):
            cand = psi - eta * gt
            cand = cand / np.linalg.norm(cand)
            fc = value(cand)
            if fc <= f - 1e-4 * eta * gn2:
                break
            eta *= 0.5
        else:
            return psi, f, "line_search"
        if not fc < f:
            return psi, f, "no_decrease"
        prev = (psi, g)
        psi = cand
        f, g = value_grad(psi)
        if it - i_ref >= _STALL_WINDOW:
            if f_ref - f <= _STALL_RTOL * max(f_ref, 1e-300):
                return psi, f, "stall"
            f_ref, i_ref = f, it
    return psi, f, "cap"


def _residual_jacobian(psi, form):
    dpsi, c, d = _overlaps(psi, form)
    hpsi = form[1] * psi[form[0]]  # D_k^dag psi
    dc_dx = dpsi + hpsi.conj()
    dc_dy = 1j * (hpsi.conj() - dpsi)
    jac = np.hstack([2.0 * np.real(c.conj()[:, None] * dc_dx),
                     2.0 * np.real(c.conj()[:, None] * dc_dy)])
    jac[0, :] = 0.0
    return d, jac


def polish(psi, value, residual_jacobian, f):
    """Gauss-Newton on the residual vector, from psi with value f; the
    least-squares step keeps quadratic convergence even where the
    solution set is a manifold and the Jacobian loses rank.
    residual_jacobian(psi) returns the residuals d (value is d @ d) and
    their real Jacobian with respect to [Re psi, Im psi]."""
    for _ in range(40):
        if f < _FTOL:
            break
        d, jac = residual_jacobian(psi)
        delta = np.linalg.lstsq(jac, -d, rcond=None)[0]
        step = delta[:psi.size] + 1j * delta[psi.size:]
        scale = 1.0
        improved = False
        for _ in range(20):
            cand = psi + scale * step
            cand = cand / np.linalg.norm(cand)
            fc = value(cand)
            if fc < f:
                psi, f = cand, fc
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    return psi, f


def optimize(psi, value, value_grad, residual_jacobian):
    """descend, then polish, from psi.  Returns psi, f and the restart's
    counts: the calls of value, value_grad and residual_jacobian
    ("value_calls", "grad_calls" and "polish_steps", one per Gauss-Newton
    step), descent steps ("iterations", one gradient call each after the
    first) and descend's stop reason ("stop")."""
    calls = {"value_calls": 0, "grad_calls": 0, "polish_steps": 0}

    def counted(key, fn):
        def call(x):
            calls[key] += 1
            return fn(x)
        return call

    value = counted("value_calls", value)
    psi, f, stop = descend(psi, value, counted("grad_calls", value_grad))
    psi, f = polish(psi, value, counted("polish_steps", residual_jacobian), f)
    return psi, f, dict(calls, iterations=calls["grad_calls"] - 1, stop=stop)


def _haar_start(rng, n):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def _zauner_projector(n):
    """Projector onto the largest eigenspace of the standard order-3
    metaplectic rotation, phase-fixed so the rotation cubes to one."""
    u = clifford.metaplectic(np.array([[0, -1], [1, -1]]), n)
    u = u / (np.trace(u @ u @ u) / n) ** (1.0 / 3.0)
    usq = u @ u
    eye = np.eye(n)
    best = None
    for m in range(3):
        lam = np.exp(2j * np.pi * m / 3.0)
        proj = (eye + np.conj(lam) * u + np.conj(lam) ** 2 * usq) / 3.0
        dim = round(float(np.trace(proj).real))
        if best is None or dim > best[0]:
            best = (dim, proj)
    return best[1]


def multistart(n, restarts, seed, objective, tol, proj=None):
    """optimize on objective, (value, value_grad, residual_jacobian), from
    restarts seeded Haar-random unit vectors in dimension n: restart r
    starts from default_rng([seed, r]), moved onto the range of the
    projector proj when one is given and the move keeps norm above 1e-6.
    Restarts run serially.  Returns every restart's (psi, f) in restart
    order and the search's stats: restarts converged below tol, summed
    iterations and calls, every final f, and how many restarts each stop
    reason ended."""
    if restarts < 1:
        raise ValueError("restarts must be positive")
    runs = []
    stops = dict.fromkeys(("trigger", "no_decrease", "stall", "line_search",
                           "cap"), 0)
    stats = dict.fromkeys(("iterations", "value_calls", "grad_calls",
                           "polish_steps"), 0)
    for r in range(restarts):
        psi = _haar_start(np.random.default_rng([seed, r]), n)
        if proj is not None:
            moved = proj @ psi
            nrm = np.linalg.norm(moved)
            if nrm > 1e-6:
                psi = moved / nrm
        psi, f, counts = optimize(psi, *objective)
        runs.append((psi, f))
        stops[counts["stop"]] += 1
        for key in stats:
            stats[key] += counts[key]
    stats.update(restarts=restarts,
                 converged=sum(1 for _, f in runs if f < tol),
                 final_values=[f for _, f in runs], stops=stops)
    return runs, stats


def sic_search(n: int, restarts: int = 32, seed: int = 0,
               zauner: bool = False) -> dict:
    """Minimize f_sic by multistart; the returned candidate is the
    (f, restart index) minimum over all restarts."""
    if not 2 <= n <= 16:
        raise ValueError("n must be between 2 and 16")
    proj = None
    if zauner:
        if n % 2 == 0 or not gf.is_prime(n):
            raise ValueError("zauner starts require an odd prime dimension")
        proj = _zauner_projector(n)
    form = _gathers(n)
    objective = [functools.partial(fn, form=form)
                 for fn in (_value, _value_grad, _residual_jacobian)]
    runs, stats = multistart(n, restarts, seed, objective, TOL_SEARCH, proj)
    f, r = min((f, r) for r, (_, f) in enumerate(runs))
    return {"n": n, "fiducial": runs[r][0], "fsic": f, "restart": r,
            "restarts": restarts, "seed": seed,
            "converged": bool(f < TOL_SEARCH), "stats": stats}


def sic_orbit(psi) -> np.ndarray:
    """All N^2 displaced copies D_{r,s} psi as rows (row r*N+s)."""
    psi = _check_unit(psi)
    return _overlaps(psi, _gathers(psi.size))[0]


def make_candidate(psi) -> dict:
    psi = _check_unit(psi)
    return {"n": psi.size, "fiducial": psi, "fsic": f_sic(psi)}


def sic_verify(cand, tol_gram: float = TOL_SIC_GRAM) -> dict:
    """Resolution of identity for the orbit within TOL_MATRIX and every
    cross Gram modulus squared at 1/(N+1) within tol_gram."""
    psi = _check_unit(cand["fiducial"])
    n = int(cand["n"])
    if psi.size != n:
        raise ValueError("dimension mismatch")
    orbit, _, d = _overlaps(psi, _gathers(n))
    if "fsic" in cand and not abs(float(cand["fsic"]) - float(d @ d)) \
            <= TOL_MATRIX:
        raise ValueError("cached fsic does not match recomputation")
    res = np.einsum("ki,kj->ij", orbit, orbit.conj()) / n - np.eye(n)
    identity_dev = float(np.max(np.abs(res)))
    gram2 = np.abs(orbit @ orbit.conj().T) ** 2
    off = ~np.eye(n * n, dtype=bool)
    gram_dev = float(np.max(np.abs(gram2[off] - 1.0 / (n + 1))))
    passed = bool(identity_dev <= TOL_MATRIX and gram_dev <= tol_gram)
    return {"n": n, "vectors": n * n, "identityDeviation": identity_dev,
            "gramDeviation": gram_dev, "pass": passed}


def dim4_fiducial() -> np.ndarray:
    """The exact dimension-4 fiducial assembled from nested radicals.
    Unit norm is exact: the squared moduli sum to
    (5 - sqrt5)/10 * (5 + sqrt5)/2 = 1."""
    r5 = math.sqrt(5.0)
    s2 = math.sqrt(2.0)
    w = math.sqrt(2.0 + r5)
    q = math.sqrt((5.0 - r5) / 10.0)
    return (q / 4.0) * np.array([(2.0 + s2) + 1j * s2,
                                 (s2 + 2.0 * w) - 1j * s2,
                                 (2.0 - s2) - 1j * s2,
                                 (s2 - 2.0 * w) - 1j * s2])


def overlap_phases(cand) -> dict:
    """sqrt(N+1) <psi|D_{r,s}|psi> as an (N, N) table; entry (0, 0) is
    nan.  For a verified SIC every defined entry is unit modulus."""
    if not sic_verify(cand)["pass"]:
        raise ValueError("candidate does not verify as a SIC")
    n = int(cand["n"])
    c = _overlaps(_check_unit(cand["fiducial"]), _gathers(n))[1]
    phases = (math.sqrt(n + 1.0) * c).reshape(n, n)
    phases[0, 0] = complex(np.nan, np.nan)
    dev = float(np.max(np.abs(np.abs(phases.ravel()[1:]) - 1.0)))
    if dev > TOL_SIC_GRAM:
        raise RuntimeError("overlap phases are not unit modulus: %g" % dev)
    return {"n": n, "phases": phases}


_MINPOLY = (1.0, 0.0, -2.0, 0.0, -2.0, 0.0, -2.0, 0.0, 1.0)


def u_fingerprint(phases) -> dict:
    """u from phase-table entry (0, 1); its deviation from the closed form
    (sqrt5 - 1)/(2 sqrt2) + i sqrt(sqrt5 + 1)/2; and the residuals of
    t^8 - 2t^6 - 2t^4 - 2t^2 + 1 at u and at 1/u, witnessing that both
    are roots, i.e. that u is an algebraic unit at this precision."""
    if int(phases["n"]) != 4:
        raise ValueError("fingerprint requires n = 4")
    u = complex(np.asarray(phases["phases"])[0, 1])
    r5 = math.sqrt(5.0)
    closed = (r5 - 1.0) / (2.0 * math.sqrt(2.0)) + 1j * math.sqrt(r5 + 1.0) / 2.0
    return {"u": u,
            "uDeviation": abs(u - closed),
            "minpolyResidual": abs(np.polyval(_MINPOLY, u)),
            "unitResidual": abs(np.polyval(_MINPOLY, 1.0 / u))}
