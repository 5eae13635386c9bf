"""Correctness checks of the benchmark's outputs.

Each check compares a program output with a computation made apart from the
program (closed forms of the scaled ground state, the exact standing wave
exp(i t) Q) or with a property the method must have (exact mass
conservation of the split step, the verdict the paper's dichotomy gives,
byte-identical reruns).  None compares with a stored copy of an earlier
output.  A check returns ``(name, passed, detail)``.

Closed forms: for u = lam Q(lam x) in two dimensions, the identities
``int Q^6 = 3 M`` and ``||grad Q||^2 = 2 M`` give mass M, gradient
``lam^2 2 M`` and energy ``lam^2 M - lam^4 M / 2``, so G0 = lam and
ME = 2 lam^2 - lam^4.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

INVARIANT_TOL = 1e-6      # closed forms on the 512/64 scatter grid
MASS_DRIFT_TOL = 1e-11
SOLITON_TOL = 1e-5        # criterion 03


def closed_form(lam: float) -> tuple[float, float]:
    """(G0, ME) of lam Q(lam x)."""
    return lam, 2.0 * lam**2 - lam**4


def bump_tolerance(lam: float, eps: float) -> tuple[float, float]:
    """First-order bounds on how far perturbed_q moves G0 and ME.

    perturbed_q is lam Q(lam x) times 1 + eps b with b = exp(-(r - rc)^2),
    0 < b <= 1 and |b'| <= sqrt(2) exp(-1/2) < 0.86.  So the mass moves by
    at most 2 eps, the L6 integral by 6 eps, and the gradient norm by
    eps (1 + 0.86 ||u|| / ||grad u||) = eps (1 + 0.61 / lam).  With
    ||grad u||^2 = 2 lam^2 M and int |u|^6 = 3 lam^4 M this bounds the
    changes of G0 = lam and of ME = 2 lam^2 - lam^4, up to O(eps^2).
    """
    grad = 2.0 * eps * (1.0 + 0.61 / lam)   # relative, on ||grad u||^2
    _, me = closed_form(lam)
    tol_g0 = 0.5 * lam * (2.0 * eps + grad)
    tol_me = 2.0 * eps * abs(me) + 2.0 * lam**2 * grad + 6.0 * eps * lam**4
    return 1.1 * tol_g0, 1.1 * tol_me   # 10 % for the O(eps^2) terms


def read_columns(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    return {name: data[:, i] for i, name in enumerate(header)}


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def invariants(G0: float, ME: float, lam: float, tol_g0: float,
               tol_me: float) -> list:
    g, me = closed_form(lam)
    return [
        ("G0 = lam", abs(G0 - g) <= tol_g0, f"|{G0!r} - {g!r}| vs {tol_g0:g}"),
        ("ME = 2 lam^2 - lam^4", abs(ME - me) <= tol_me,
         f"|{ME!r} - {me!r}| vs {tol_me:g}"),
    ]


def mass_drift(drift: np.ndarray) -> tuple:
    worst = float(np.max(np.abs(drift)))
    return ("mass drift", worst <= MASS_DRIFT_TOL,
            f"{worst:.2e} vs {MASS_DRIFT_TOL:g}")


def scatter_row(out_dir: str, lam: float) -> list:
    """Criterion-05 scatter row at lam: verdict, trajectory, detector."""
    verdict = _read_json(os.path.join(out_dir, "verdict.json"))
    traj = read_columns(os.path.join(out_dir, "trajectory.csv"))
    sc = _read_json(os.path.join(out_dir, "scattering.json"))
    g_max = float(np.max(traj["G"]))
    return invariants(verdict["G0"], verdict["ME"], lam, INVARIANT_TOL,
                      INVARIANT_TOL) + [
        ("verdict scatter", verdict["case"] == "scatter", verdict["case"]),
        ("G < 1 at every sample", g_max < 1.0, f"max G {g_max!r}"),
        mass_drift(traj["mass_drift"]),
        ("detector scatter_like", sc["verdict"] == "scatter_like", sc["verdict"]),
        ("L6 decay >= 10", sc["l6_decay_factor"] >= 10.0,
         f"{sc['l6_decay_factor']:.3g}"),
        ("d_T2_over_H1 <= 0.05", sc["d_T2_over_H1"] <= 0.05,
         f"{sc['d_T2_over_H1']:.3g}"),
    ]


def region_map(sweep_dir: str) -> bytes:
    with open(os.path.join(sweep_dir, "region_map.csv"), "rb") as fh:
        return fh.read()


def blowup_sweep(out_dir: str, lambdas, eps: float, t_end: float,
                 first_map: bytes) -> list:
    """Criterion-05 blow-up sweep: every row, and criterion 13 on the map."""
    results = []
    for i, lam in enumerate(lambdas):
        row_dir = os.path.join(out_dir, f"row_{i:03d}")
        verdict = _read_json(os.path.join(row_dir, "verdict.json"))
        outcome = _read_json(os.path.join(row_dir, "trajectory.outcome.json"))
        g = read_columns(os.path.join(row_dir, "trajectory.csv"))["G"]
        t_star = outcome["t"]
        results += [
            (f"row {i} {name}", ok, detail) for name, ok, detail in
            invariants(verdict["G0"], verdict["ME"], lam,
                       *bump_tolerance(lam, eps))
        ]
        results += [
            (f"row {i} verdict blowup_or_diverge",
             verdict["case"] == "blowup_or_diverge", verdict["case"]),
            (f"row {i} blowup_detected with 0 < t* <= t_end",
             outcome["outcome"] == "blowup_detected" and 0.0 < t_star <= t_end,
             f"{outcome['outcome']} at {t_star!r}"),
            (f"row {i} G > 1 at every sample", float(np.min(g)) > 1.0,
             f"min G {float(np.min(g))!r}"),
        ]
    this_map = region_map(out_dir)
    results.append(("region map byte-identical to the first repetition",
                    this_map == first_map, f"{len(this_map)} bytes"))
    return results


def soliton(u: np.ndarray, q: np.ndarray, t: float, drift: np.ndarray) -> list:
    """Criterion 03: u(t) against the exact standing wave exp(i t) q."""
    dev = float(np.linalg.norm(u - np.exp(1j * t) * q) / np.linalg.norm(q))
    return [
        ("deviation from exp(i t) Q", dev <= SOLITON_TOL,
         f"{dev:.3e} vs {SOLITON_TOL:g}"),
        mass_drift(drift),
    ]


def read_rows(sweep_dir: str) -> list[dict]:
    """Rows of a sweep's region_map.csv."""
    with open(os.path.join(sweep_dir, "region_map.csv"), newline="") as fh:
        return list(csv.DictReader(fh))
