"""Dichotomy classifier for initial data below the renormalized threshold.

Inputs are classified by the invariants (ME, G0, Pn) of the datum relative
to the ground-state scales: after removing the momentum contribution, data
inside the admissible window split across the unit threshold of G^2 - Pn^2
into a scattering branch and a blow-up/divergence branch.  The verdict is a
statement about the datum; `reconcile` cross-checks it against what a
simulated trajectory actually did.  It reads the datum by `read_field`, as
a run's t = 0 probe does, so G0 and ME are the run's first G and M E.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .grid import Field, abs2, atomic_open, boundary_mass_fraction
from .functionals import RenormalizedSet, renormalized, window_check
from .diagnostics import radial_asymmetry
from .evolution import (BLOWUP_DETECTED, GRAD_BLOWUP_FACTOR, RAN_TO_T_END,
                        UNDERRESOLVED, read_field)

CASE_SCATTER = "scatter"
CASE_BLOWUP = "blowup_or_diverge"
CASE_NEGATIVE_ENERGY = "negative_energy_blowup"
CASE_OUT_OF_SCOPE = "out_of_scope"
CASE_BOUNDARY = "boundary"
CASE_FORBIDDEN = "forbidden"

ALL_CASES = (
    CASE_SCATTER,
    CASE_BLOWUP,
    CASE_NEGATIVE_ENERGY,
    CASE_OUT_OF_SCOPE,
    CASE_BOUNDARY,
    CASE_FORBIDDEN,
)


@dataclass
class Verdict:
    case: str
    ME: float
    G0: float
    Pn: float
    me_minus_2p2: float
    g2_minus_p2: float
    radial: bool
    finite_variance: bool

    def to_json(self) -> dict:
        return asdict(self)


def write_verdict_json(verdict: Verdict, path: str) -> None:
    with atomic_open(path) as fh:
        json.dump(verdict.to_json(), fh, indent=2)


def is_radial(f: Field, rel_tol: float = 1e-8) -> bool:
    return radial_asymmetry(f) <= rel_tol * float(abs(f.values).max())


def classify(f: Field, gs, tol: float = 1e-4) -> Verdict:
    """Classify a datum by its renormalized invariants.

    Order of precedence: a datum whose momentum-free reduction violates the
    admissible window is `forbidden`; negative energy forces blow-up
    regardless of the threshold quantities; ME - 2 Pn^2 at or above 1 is
    outside the analyzed regime; otherwise G^2 - Pn^2 against 1 (with a
    +-tol dead band mapped to `boundary`) splits scatter from
    blowup-or-diverge.

    tol doubles as the window-check tolerance: scaling-line data sit exactly
    on the lower window boundary, so the margin sign at machine level is a
    quadrature artifact of the sampling grid.
    """
    if not gs.certified:
        raise ValueError("classification requires a certified ground state")
    basis, samples, _, m = read_field(f)
    rn = renormalized(m, gs)
    me2 = rn.ME - 2.0 * rn.Pn**2
    g2 = rn.G**2 - rn.Pn**2
    radial = is_radial(f)
    fin_var = boundary_mass_fraction(abs2(samples), basis.c) <= 1e-10

    # admissible window is checked on the zero-momentum reduction; the
    # reduced invariants follow algebraically: removing the traveling-frame
    # kinetic part shifts ME by -2 Pn^2 and G^2 by -Pn^2, exactly
    rw = RenormalizedSet(G=float(np.sqrt(max(g2, 0.0))), Pn=0.0, ME=me2)
    window = window_check(rw, tol=tol)

    if window.status != "inside":
        case = CASE_FORBIDDEN
    elif m.energy < 0.0:
        case = CASE_NEGATIVE_ENERGY
    elif me2 >= 1.0 - tol:
        case = CASE_BOUNDARY if me2 <= 1.0 + tol else CASE_OUT_OF_SCOPE
    elif g2 < 1.0 - tol:
        case = CASE_SCATTER
    elif g2 > 1.0 + tol:
        case = CASE_BLOWUP
    else:
        case = CASE_BOUNDARY

    return Verdict(
        case=case,
        ME=rn.ME,
        G0=rn.G,
        Pn=rn.Pn,
        me_minus_2p2=me2,
        g2_minus_p2=g2,
        radial=radial,
        finite_variance=fin_var,
    )


def reconcile(verdict: Verdict, rec, scatter_report=None) -> str:
    """Compare a verdict with a simulated outcome: agree/disagree/inconclusive.

    Contradictory evidence (scatter verdict but blow-up detected, or blow-up
    verdict but a confirmed scattering profile) is a disagreement; absence
    of confirming evidence within the simulated horizon is inconclusive,
    since divergence or slow scattering may only show past t_end.
    """
    if verdict.case not in ALL_CASES:
        raise ValueError(f"unknown case {verdict.case!r}")
    if rec.outcome == UNDERRESOLVED:
        return "inconclusive"
    if verdict.case in (CASE_BOUNDARY, CASE_OUT_OF_SCOPE, CASE_FORBIDDEN):
        return "inconclusive"

    blow_seen = rec.outcome == BLOWUP_DETECTED
    grad_grew = bool(rec.grad_sq
                     and max(rec.grad_sq) >= GRAD_BLOWUP_FACTOR * rec.grad_sq[0])
    scatter_seen = scatter_report is not None and scatter_report.verdict == "scatter_like"

    if verdict.case == CASE_SCATTER:
        if blow_seen:
            return "disagree"
        if scatter_seen:
            return "agree"
        return "inconclusive"
    # blow-up branch (negative energy included)
    if blow_seen or (rec.outcome == RAN_TO_T_END and grad_grew):
        return "agree"
    if scatter_seen:
        return "disagree"
    return "inconclusive"
