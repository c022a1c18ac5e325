"""SIC fiducials: the quartic overlap objective, seeded random-restart
search from the Zauner eigenspace, orbit verification, and the exact
dimension-4 fiducial with its overlap-phase fingerprint."""

import functools
import math
import types

import numpy as np

from . import weyl
from .tol import TOL_MATRIX, TOL_SEARCH, TOL_SIC_GRAM

_FTOL = 1e-30
_DAMPING = 1e-14
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
    return float(_probe(psi[None], _gathers(psi.size))[0][0])


def f_sic_grad(psi) -> np.ndarray:
    """Gradient of the raw quartic, encoded as a complex vector:
    df/dRe(psi_j) is the real part of entry j, df/dIm(psi_j) the
    imaginary part."""
    psi = _check_unit(psi)
    form = _gathers(psi.size)
    return _grad(_probe(psi[None], form)[1], form)[0]


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


def _block_rows(n):
    """Restarts per lockstep block: max(1, 2^16 // n^3), so one (R, N^2, N)
    complex gather holds at most 2^16 entries (1 MB; 37 rows at n = 12)."""
    return max(1, 2 ** 16 // n ** 3)


def _shift(psi, idx, vals, out=None):
    """vals[k, x] * psi_i[idx[k, x]] for every row i of psi, (L, K, N), in
    out[:L] when given.  `vals * psi[idx]` on one vector of 2^14 or more
    entries (N >= 26) ran in place in the gather, as psi[idx] * vals, which
    rounds differently: the order below keeps the bits of both."""
    x = np.take(psi, idx, axis=1, mode="clip",
                out=None if out is None else out[:len(psi)])
    pair = (x, vals) if idx.size >= 2 ** 14 else (vals, x)
    return np.multiply(*pair, out=x)


def _unit(x):
    """Every row of x over its norm, bit for bit x_i / np.linalg.norm(x_i)."""
    return x / np.sqrt(np.vecdot(x.real, x.real)
                       + np.vecdot(x.imag, x.imag))[:, None]


def _overlaps(psi, form, work=None):
    """For every row psi_i of the (L, N) block psi: D_k psi_i, the overlaps
    c_ik = <psi_i|D_k|psi_i> and the objective's terms d_ik = |c_ik|^2 -
    1/(N+1), with d_i0 = 0 for the identity."""
    dpsi = _shift(psi, form[2], form[3], work)
    c = np.matvec(dpsi, psi.conj())
    d = np.abs(c) ** 2 - 1.0 / (psi.shape[1] + 1)
    d[:, 0] = 0.0
    return dpsi, c, d


# The objective on blocks, in the form multistart takes.  A state is
# (psi, c, d): grad and jacobian gather D psi again rather than hold it.

def _probe(psi, form, work=None):
    _, c, d = _overlaps(psi, form, work)
    return np.vecdot(d, d), (psi, c, d)


def _grad(state, form, work=None):
    psi, c, d = state
    g = (d * c.conj())[:, None, :] @ _shift(psi, form[2], form[3], work)
    hpsi = _shift(psi, form[0], form[1], work)  # D_k^dag psi
    return 4.0 * (g[:, 0] + ((d * c)[:, None, :] @ hpsi)[:, 0])


def _jacobian(state, form, work=None):
    """d and its (L, K, 2N) Jacobian in [Re psi, Im psi] for all L rows in
    one batched pass, written into the spent gather hc through two (L, K,
    N) temporaries, dpsi = D_k psi and dc_dy (1 MB each at a full block)."""
    psi, c, d = state
    n = psi.shape[1]
    hc = _shift(psi, form[0], form[1], work)
    np.conj(hc, out=hc)  # conj(D_k^dag psi)
    dpsi = _shift(psi, form[2], form[3])
    cc = c.conj()[:, :, None]
    dc_dy = np.subtract(hc, dpsi)
    np.multiply(cc, np.multiply(1j, dc_dy, out=dc_dy), out=dc_dy)
    dc_dx = np.multiply(cc, np.add(dpsi, hc, out=dpsi), out=dpsi)
    jac = hc.view(float)
    np.multiply(2.0, dc_dx.real, out=jac[..., :n])
    np.multiply(2.0, dc_dy.real, out=jac[..., n:])
    jac[:, 0, :] = 0.0
    return d, jac


def _gn_step(jac, d):
    """-(J^T J + mu I)^-1 J^T d, mu = _DAMPING tr(J^T J) / M, for each row
    of the (L, K, M) jac and (L, K) d in one np.linalg.solve, bit for bit
    as a stack of one; J = 0 solves with mu = 1, which gives a zero step."""
    a = jac.mT @ jac
    mu = _DAMPING * np.trace(a, axis1=1, axis2=2) / jac.shape[2]
    a += np.where(mu == 0.0, 1.0, mu)[:, None, None] * np.eye(jac.shape[2])
    return np.linalg.solve(a, -np.matvec(jac.mT, d)[..., None])[..., 0]


def _retire(w, out, done):
    """Write the working rows flagged in done to out, at their rows in the
    block, and drop them from the working rows w."""
    for key in out:
        out[key][w.row[done]] = getattr(w, key)[done]
    for key, val in vars(w).items():
        setattr(w, key, val[~done])


# descend's stop reasons; a working row's stop is 1 + the index, 0 while
# it runs
_STOPS = ("trigger", "no_decrease", "stall", "line_search", "cap")


def descend(psi, probe, grad):
    """Projected gradient descent on the unit sphere with a BB1 step and
    Armijo backtracking, for any objective invariant under a global phase,
    on every row of the (R, n) block psi in lockstep: each pass probes one
    line-search candidate per running row and takes the gradients at the
    accepted ones, and a row that stops drops out.  probe(psi) returns f
    per row and a state, a tuple of per-row arrays; grad(state) returns the
    gradients in f_sic_grad's complex encoding.  Returns psi, f and per-row
    "value_calls" (candidates probed), "backtracks" (Armijo halvings),
    "iterations" (accepted steps) and "stop", why descent stopped:
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
    rows = len(psi)
    f, state = probe(psi)
    w = types.SimpleNamespace(
        row=np.arange(rows), psi=np.array(psi), f=f, g=grad(state),
        gt=np.empty_like(psi), gn2=np.empty(rows), step=np.ones(rows),
        eta=np.empty(rows), f_ref=f.copy(), **{key: np.zeros(rows, int)
        for key in ("halvings", "stop", "iterations", "value_calls",
                    "backtracks")})
    out = {key: np.empty_like(getattr(w, key)) for key in (
        "psi", "f", "stop", "iterations", "value_calls", "backtracks")}
    new = np.ones(rows, bool)
    while True:
        if new.any():  # rows that start an iteration
            at = slice(None) if new.all() else new
            psi, g = w.psi[at], w.g[at]
            gt = g - np.vecdot(psi, g).real[:, None] * psi
            gn2 = np.vecdot(gt, gt).real
            w.gt[at], w.gn2[at], w.eta[at], w.halvings[at] = \
                gt, gn2, w.step[at], 0
            w.stop[at] = np.where(w.f[at] < _POLISH_TRIGGER, 1,
                                  np.where(gn2 == 0.0, 2, 0))
        if w.stop.any():
            _retire(w, out, w.stop > 0)
            if not w.row.size:
                break
        cand = _unit(w.psi - w.eta[:, None] * w.gt)
        fc, state = probe(cand)
        w.value_calls += 1
        ok = fc <= w.f - 1e-4 * w.eta * w.gn2
        new = ok & (fc < w.f)
        if not new.all():
            back = ~ok
            w.eta[back] *= 0.5
            w.halvings += back
            w.backtracks += back
            w.stop[ok ^ new] = 2
            w.stop[w.halvings == 60] = 4
            if not new.any():
                continue
        at = slice(None) if new.all() else new
        g = grad(tuple(a[at] for a in state))
        s = cand[at] - w.psi[at]
        sy = np.vecdot(s, g - w.g[at]).real
        bb = np.divide(np.vecdot(s, s).real, sy, out=np.ones_like(sy),
                       where=sy > 0.0)
        w.step[at] = np.minimum(np.where(sy > 0.0, np.maximum(bb, 1e-8),
                                         w.step[at] * 2.0), 1e3)
        w.psi[at], w.f[at], w.g[at] = cand[at], fc[at], g
        # the stall window closes at every _STALL_WINDOW-th step
        window = new & (w.iterations >= _STALL_WINDOW) & (
            w.iterations % _STALL_WINDOW == 0)
        if window.any():
            w.stop[window & (w.f_ref - w.f <= _STALL_RTOL
                             * np.maximum(w.f_ref, 1e-300))] = 3
            w.f_ref[window] = w.f[window]
        w.iterations += new
        w.stop[(w.iterations == _MAX_ITER) & (w.stop == 0)] = 5
        new &= w.stop == 0
    out["stop"] = [_STOPS[k - 1] for k in out["stop"]]
    return out


def polish(psi, f, probe, jacobian):
    """Gauss-Newton on the residual vector from every row of the (R, n)
    block psi, with values f, in lockstep as descend runs: jacobian(state)
    gives the residuals d (probe's f is d @ d) and their real Jacobian J in
    [Re psi, Im psi], and each pass solves every row that steps in one
    _gn_step.  The damping mu moves the step by about mu / s^2 along a
    singular value s of J: it is the least-squares step where s^2 >> mu,
    finite along the phase i psi (s = 0), and shorter where s^2 < mu, as
    at the n = 4 minima descend stops at (least-squares step ~1e7 long).
    Of mu = 1e-14 .. 1e-8 times the mean of diag J^T J, 1e-14 converged the
    most restarts at n = 4 and 5; 1e-12 cost 28% more value calls at n = 3.
    Returns psi, f and per row "value_calls", "backtracks", "polish_steps"."""
    rows, n = psi.shape
    run = ~(f < _FTOL)
    w = types.SimpleNamespace(
        row=np.flatnonzero(run), psi=psi[run], f=f[run],
        step=np.empty((run.sum(), n), complex), scale=np.empty(run.sum()),
        **{key: np.zeros(run.sum(), int) for key in (
            "trials", "value_calls", "backtracks", "polish_steps")})
    out = {"psi": np.array(psi), "f": np.array(f),
           **{key: np.zeros(rows, int) for key in (
               "value_calls", "backtracks", "polish_steps")}}

    def newton(new, state):  # a step for the working rows flagged in new
        d, jac = jacobian(tuple(a[new] for a in state))
        delta = _gn_step(jac, d)
        w.step[new] = delta[:, :n] + 1j * delta[:, n:]
        w.scale[new], w.trials[new] = 1.0, 0
        w.polish_steps += new

    newton(run[run], probe(w.psi)[1])  # descend's last psi, uncounted
    while w.row.size:
        cand = _unit(w.psi + w.scale[:, None] * w.step)
        fc, state = probe(cand)
        w.value_calls += 1
        new = fc < w.f
        w.scale[~new] *= 0.5
        w.trials += ~new
        w.backtracks += ~new
        w.psi[new], w.f[new] = cand[new], fc[new]
        done = (w.trials == 20) | new & (
            (w.polish_steps == 40) | (w.f < _FTOL))
        if (new & ~done).any():
            newton(new & ~done, state)
        if done.any():
            _retire(w, out, done)
    return out


def optimize(psi, probe, grad, jacobian):
    """descend, then polish, every row of the (R, n) block psi; one
    restart is the block of one row, and each row's psi, f and counts are
    bit for bit those of its own block of one.  Returns psi, f and per-row
    "value_calls" (line-search and polish candidates probed),
    "grad_calls", "polish_steps", "backtracks" (the halvings of both),
    "iterations" (descent steps, one gradient call each after the first)
    and descend's "stop"."""
    d = descend(psi, probe, grad)
    p = polish(d["psi"], d["f"], probe, jacobian)
    return p["psi"], p["f"], {
        "iterations": d["iterations"], "grad_calls": d["iterations"] + 1,
        "value_calls": d["value_calls"] + p["value_calls"],
        "backtracks": d["backtracks"] + p["backtracks"],
        "polish_steps": p["polish_steps"], "stop": d["stop"]}


def _haar_start(rng, n):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def _zauner_projector(n):
    """Projector onto the largest eigenspace of the Zauner unitary U_G, G =
    [[0, -1], [1, -1]], phase-fixed to cube to one; the first of equal ones."""
    u = weyl.metaplectic(np.array([[0, -1], [1, -1]]), n)
    u = u / (np.trace(u @ u @ u) / n) ** (1.0 / 3.0)
    usq = u @ u
    projs = [(np.eye(n) + np.conj(lam) * u + np.conj(lam) ** 2 * usq) / 3.0
             for lam in (np.exp(2j * np.pi * m / 3.0) for m in range(3))]
    return max(projs, key=lambda proj: round(float(np.trace(proj).real)))


def multistart(n, restarts, seed, objective, tol, proj=None):
    """optimize on objective, (probe, grad, jacobian), from restarts seeded
    Haar-random unit vectors in dimension n: restart r starts from
    default_rng([seed, r]), moved onto the range of the projector proj
    when one is given and the move keeps norm above 1e-6.  The restarts
    run in restart order in lockstep blocks of max(1, 2^16 // n^3) rows
    (_block_rows); each restart's psi, f and counts are those of its own
    run bit for bit, whatever the block.  Returns every restart's (psi, f)
    in restart order and the search's stats: restarts converged below tol,
    summed iterations, calls and backtracks, every final f, and how many
    restarts each stop reason ended."""
    if restarts < 1:
        raise ValueError("restarts must be positive")
    starts = []
    for r in range(restarts):
        psi = _haar_start(np.random.default_rng([seed, r]), n)
        if proj is not None:
            moved = proj @ psi
            nrm = np.linalg.norm(moved)
            if nrm > 1e-6:
                psi = moved / nrm
        starts.append(psi)
    runs = []
    stops = dict.fromkeys(_STOPS, 0)
    stats = dict.fromkeys(("iterations", "value_calls", "grad_calls",
                           "polish_steps", "backtracks"), 0)
    block = _block_rows(n)
    for lo in range(0, restarts, block):
        psi, f, counts = optimize(np.array(starts[lo:lo + block]),
                                  *objective)
        runs.extend(zip(psi, f.tolist()))
        for stop in counts["stop"]:
            stops[stop] += 1
        for key in stats:
            stats[key] += int(counts[key].sum())
    stats.update(restarts=restarts,
                 converged=sum(1 for _, f in runs if f < tol),
                 final_values=[f for _, f in runs], stops=stops)
    return runs, stats


def sic_search(n: int, restarts: int = 32, seed: int = 0) -> dict:
    """Minimize f_sic by multistart from starts in the Zauner eigenspace;
    the candidate is np.argmin's restart: the first least f, or NaN f."""
    form = _gathers(n)
    # the buffer of every gather of a block; one holds until the next
    work = np.empty((np.clip(restarts, 0, _block_rows(n)), n * n, n), complex)
    objective = [functools.partial(fn, form=form, work=work)
                 for fn in (_probe, _grad, _jacobian)]
    runs, stats = multistart(n, restarts, seed, objective, TOL_SEARCH,
                             _zauner_projector(n))
    r = int(np.argmin([f for _, f in runs]))
    f = runs[r][1]
    return {"n": n, "fiducial": runs[r][0], "fsic": f, "restart": r,
            "restarts": restarts, "seed": seed,
            "converged": bool(f < TOL_SEARCH), "stats": stats}


def sic_orbit(psi) -> np.ndarray:
    """All N^2 displaced copies D_{r,s} psi as rows (row r*N+s)."""
    psi = _check_unit(psi)
    return _overlaps(psi[None], _gathers(psi.size))[0][0]


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
    orbit, _, d = (a[0] for a in _overlaps(psi[None], _gathers(n)))
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
    c = _overlaps(_check_unit(cand["fiducial"])[None], _gathers(n))[1][0]
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
