"""Radial shooting oracle, spectral ground-state solve, and the data families.

Frozen oracle values for the positive decaying solution of
q'' + q'/r - q + q^5 = 0 (computed once by shooting, with Q(0) bisected
between shots that cross zero and shots that turn up, at integrator
tolerance 1e-13, and pinned here as a regression guard; the oracle now
matches the shot to the K0 tail, and its Q(0) is 1 ulp below this pin):
    q(0)        2.000289943995881
    mass        3.983447465221882
    grad sq     7.966894930443748
    L6^6        11.950342395665654
    energy      1.9917237326109316
    sharp GN    0.04726537147322228
    ||q|| ||grad q||  5.633445430317513
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import PPoly
from scipy.special import k0 as bessel_k0

from nls2d import (
    CertificationError,
    SpectralGrid,
    gn_inequality_check,
    ground_state,
    load_ground_state,
    make_initial_data,
    moments,
    save_ground_state,
    solve_petviashvili,
    solve_radial_shooting,
)

Q0 = 2.000289943995881
MASS_Q = 3.983447465221882
GRAD_Q_SQ = 7.966894930443748
L6_Q = 11.950342395665654
ENERGY_Q = 1.9917237326109316
C_GN = 0.04726537147322228
QQ_GQ = 5.633445430317513


def test_shooting_amplitude_regression(shooting_profile):
    assert shooting_profile.q0 == pytest.approx(Q0, rel=1e-10)


def test_shooting_matches_the_tail_in_few_shots(monkeypatch):
    import scipy.integrate

    shots = []
    solve_ivp = scipy.integrate.solve_ivp

    def counting(*args, **kwargs):
        shots.append(1)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", counting)
    profile = solve_radial_shooting()
    # 13 shots to the fitting radius, then the profile integration
    assert len(shots) <= 16
    assert profile.q0 == pytest.approx(Q0, rel=1e-15)


def test_shooting_mismatch_changes_sign_at_q0():
    below = ground_state._mismatch(Q0 * (1.0 - 1e-12))
    above = ground_state._mismatch(Q0 * (1.0 + 1e-12))
    assert below * above < 0.0


def test_shooting_without_a_bracket_is_uncertified(monkeypatch):
    monkeypatch.setattr(ground_state, "_mismatch", lambda a: 1.0 + a)
    with pytest.raises(CertificationError, match="no sign change"):
        solve_radial_shooting()


def test_shooting_profile_mass(shooting_profile):
    assert shooting_profile.mass() == pytest.approx(MASS_Q, rel=1e-10)


def test_shooting_profile_solves_the_ode(shooting_profile):
    # independent residual check through the spline's own second derivative;
    # limited by cubic-spline differentiation error, not by the integrator
    s = PPoly(shooting_profile.c, shooting_profile.x)
    r = np.linspace(0.3, 10.0, 500)
    q, q1, q2 = s(r), s(r, 1), s(r, 2)
    assert np.max(np.abs(q2 + q1 / r - q + q**5)) < 1e-4


def test_shooting_profile_shape(shooting_profile):
    p = shooting_profile
    assert s_monotone_decay(p)
    assert p.q_of(0.0) == pytest.approx(p.q0, rel=1e-12)
    # even profile: zero slope at the origin
    assert PPoly(p.c, p.x)(0.0, 1) == 0.0
    # grafted far field follows the modified Bessel decay
    rt = np.linspace(p.r_switch + 0.5, 15.0, 40)
    ratio = p.q_of(rt) / bessel_k0(rt)
    assert np.max(np.abs(ratio - p.c_tail)) < 1e-9
    assert abs(p.q_of(p.r_max)) < 1e-10
    assert p.q_of(p.r_max + 1.0) == 0.0


def test_q_of_is_scipys_spline_bit_for_bit(shooting_profile):
    p = shooting_profile
    spline = PPoly(p.c, p.x)
    for n, L in ((512, 48.0), (512, 64.0)):
        R = SpectralGrid(n, L).R
        for lam in (1.0, 0.8, 0.7913, 1.2, 1.3):
            r = np.clip(lam * R, 0.0, p.r_max)
            assert np.array_equal(p.q_of(r), spline(r))
    assert np.array_equal(p.q_of(p.x), spline(p.x))
    assert p.q_of(p.r_max) == spline(p.r_max)
    assert p.q_of(1.2345) == spline(1.2345)
    assert p.q_of(1.2345).shape == ()
    beyond = p.r_max + np.array([1e-12, 1.0, 100.0])
    assert np.array_equal(p.q_of(beyond), np.zeros(3))


def s_monotone_decay(p) -> bool:
    r = np.linspace(0.0, 12.0, 200)
    q = p.q_of(r)
    return bool(np.all(np.diff(q) < 0.0) and np.all(q > 0.0))


def test_petviashvili_certifies(gs_cert):
    assert gs_cert.certified
    assert np.max(np.abs(gs_cert.residuals)) <= 1e-6
    assert gs_cert.sup_err_vs_oracle <= 1e-5
    assert abs(gs_cert.s_final - 1.0) < 1e-12


def test_grid_norms_match_radial_oracle(gs_cert):
    assert gs_cert.massQ == pytest.approx(MASS_Q, rel=1e-7)
    assert gs_cert.gradQ_sq == pytest.approx(GRAD_Q_SQ, rel=1e-7)
    assert gs_cert.l6Q_6 == pytest.approx(L6_Q, rel=1e-7)
    assert gs_cert.energyQ == pytest.approx(ENERGY_Q, rel=1e-7)
    assert gs_cert.c_gn == pytest.approx(C_GN, rel=1e-6)
    assert gs_cert.qq_gq == pytest.approx(QQ_GQ, rel=1e-7)


def test_ground_state_is_even_to_the_bit(gs_cert, gs_cache):
    # Q is solved on the quadrant and unfolded, so Q and the data built from
    # it step on the quadrant; the cache keeps it so
    from nls2d.evolution import _is_even

    assert _is_even(gs_cert.field.values)
    assert _is_even(load_ground_state(gs_cache).field.values)


def test_an_uneven_q_certifies_on_the_full_grid(gs_cert, gs_cache, monkeypatch):
    # Q reads its scalars in the basis it steps in: the quadrant, within
    # roundoff of the full grid's FFT moments.  A Q that is not even to the
    # bit (forced here) takes the full grid's, to the bit, solved or loaded
    from nls2d import evolution
    from nls2d.ground_state import _certify, _identity_residuals

    m = moments(gs_cert.field)
    for got, want in ((gs_cert.massQ, m.mass), (gs_cert.gradQ_sq, m.grad_sq),
                      (gs_cert.l6Q_6, m.l6_6)):
        assert got == pytest.approx(want, rel=1e-14)
    monkeypatch.setattr(evolution, "_is_even", lambda v: False)
    for gs in (_certify(gs_cert.field, gs_cert.radial_profile, gs_cert.s_final),
               load_ground_state(gs_cache)):
        assert gs.certified
        assert (gs.massQ, gs.gradQ_sq, gs.l6Q_6) == (m.mass, m.grad_sq, m.l6_6)
        assert np.array_equal(gs.residuals,
                              _identity_residuals(m.mass, m.grad_sq, m.l6_6))
        assert gs.sup_err_vs_oracle == gs_cert.sup_err_vs_oracle


def test_pohozhaev_identities(gs_cert):
    assert np.max(np.abs(gs_cert.residuals)) <= 1e-6


def test_petviashvili_uncertified_on_coarse_grid(shooting_profile):
    gs = solve_petviashvili(SpectralGrid(64, 24.0), tol=1e-10,
                            profile=shooting_profile)
    assert not gs.certified


def test_petviashvili_seed_moves_the_iteration_count_not_the_answer(
        grid_cert, gs_cert, shooting_profile, monkeypatch):
    # a stand-in profile reaches the solve's seed: a positive Gaussian far
    # from Q, which the certification against it then fails
    import scipy.fft

    class GaussianProfile:
        def q_of(self, r):
            return 2.2 * np.exp(-np.asarray(r) ** 2 / 2.0)

    calls = []

    def counted(*args, _fn=scipy.fft.dctn, **kwargs):
        calls.append(args[0].shape)
        return _fn(*args, **kwargs)

    def full_grid(*args, **kwargs):
        raise AssertionError("the solve ran a full-grid transform")

    monkeypatch.setattr(scipy.fft, "dctn", counted)
    for name in ("rfft2", "irfft2"):
        monkeypatch.setattr(scipy.fft, name, full_grid)
    gs = solve_petviashvili(grid_cert, tol=1e-10, profile=GaussianProfile())
    cold = len(calls)
    # the quadrant's, the certificate's on its (re, im) pairs included
    assert {shape[:2] for shape in calls} == {(grid_cert.n // 2 + 1,) * 2}
    calls.clear()
    solve_petviashvili(grid_cert, tol=1e-10, profile=shooting_profile)
    # two forward transforms an iteration, plus one before the loop
    assert len(calls) < cold / 2
    assert np.max(np.abs(gs.field.values - gs_cert.field.values)) <= 1e-10


def test_petviashvili_residual_on_the_full_spectrum(gs_cert, grid_cert):
    # the loop stops on the quadrant's residual; the full complex spectrum
    # of the answer must meet the same equation
    q = gs_cert.field.values.real
    qh = np.fft.fft2(q)
    res = np.linalg.norm(np.fft.fft2(q**5) - (1.0 + grid_cert.K2) * qh)
    assert res / np.linalg.norm(qh) <= 1e-9


def test_petviashvili_reports_no_convergence(shooting_profile):
    with pytest.raises(CertificationError, match="no convergence"):
        solve_petviashvili(SpectralGrid(64, 24.0), tol=1e-10, max_iter=5,
                           profile=shooting_profile)


def test_gn_slack_zero_at_ground_state(gs_cert):
    slack = gn_inequality_check(gs_cert.field, gs_cert)
    assert abs(slack) <= 1e-6 * gs_cert.l6Q_6


def test_gn_slack_nonnegative_on_random_fields(gs_cert, grid_256, rng):
    from nls2d import Field

    for _ in range(10):
        vals = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        smooth = np.fft.ifft2(np.fft.fft2(vals) * np.exp(-0.1 * grid_256.K2))
        f = Field(grid_256, smooth)
        m = moments(f)
        scale = gs_cert.c_gn * m.mass * m.grad_sq ** 2
        assert gn_inequality_check(f, gs_cert) >= -1e-12 * scale


def test_gn_check_requires_certification(gs_cert, grid_256):
    from nls2d import Field

    bad = dataclasses.replace(gs_cert, certified=False)
    f = Field(grid_256, np.ones((256, 256), dtype=complex))
    with pytest.raises(ValueError):
        gn_inequality_check(f, bad)


def test_make_initial_data_families(gs_cert, grid_cert, grid_256):
    lam = 1.1
    f = make_initial_data("scaled_q", {"lam": lam}, grid_cert, gs=gs_cert)
    assert np.max(np.abs(f.values)) == pytest.approx(lam * gs_cert.radial_profile.q0,
                                                     rel=1e-9)
    assert moments(f).mass == pytest.approx(gs_cert.massQ, rel=1e-6)

    g = make_initial_data("gaussian", {"amplitude": 0.5, "width": 1.5}, grid_256)
    assert np.max(np.abs(g.values)) == pytest.approx(0.5, rel=1e-12)

    p = make_initial_data("perturbed_q", {"lam": 1.0, "eps": 1e-3}, grid_cert,
                          gs=gs_cert, seed=7)
    p_same = make_initial_data("perturbed_q", {"lam": 1.0, "eps": 1e-3}, grid_cert,
                               gs=gs_cert, seed=7)
    p_other = make_initial_data("perturbed_q", {"lam": 1.0, "eps": 1e-3}, grid_cert,
                                gs=gs_cert, seed=8)
    assert np.array_equal(p.values, p_same.values)
    assert not np.array_equal(p.values, p_other.values)

    b = make_initial_data(
        "boosted",
        {"inner": {"family": "gaussian",
                   "params": {"amplitude": 0.5, "width": 1.5}},
         "xi": [2.0 * np.pi / grid_256.L, 0.0]},
        grid_256)
    assert np.allclose(np.abs(b.values), np.abs(g.values))


def test_make_initial_data_errors(gs_cert, grid_256):
    with pytest.raises(ValueError, match="unknown"):
        make_initial_data("solitonish", {}, grid_256)
    with pytest.raises(ValueError, match="ground state"):
        make_initial_data("scaled_q", {"lam": 1.0}, grid_256)
    # a width-8 hump does not decay inside a 32-box
    with pytest.raises(ValueError, match="too small"):
        make_initial_data("gaussian", {"amplitude": 1.0, "width": 8.0}, grid_256)
    # a lam = 0.7 dilate of the ground state spills past L = 32 as well
    with pytest.raises(ValueError, match="too small"):
        make_initial_data("scaled_q", {"lam": 0.7}, grid_256, gs=gs_cert)


def test_cache_round_trip(gs_cert, tmp_path):
    path = str(tmp_path / "gs.nls2")
    save_ground_state(gs_cert, path)
    back = load_ground_state(path)
    assert back.certified
    assert back.massQ == gs_cert.massQ
    assert back.gradQ_sq == gs_cert.gradQ_sq
    assert back.l6Q_6 == gs_cert.l6Q_6
    assert back.c_gn == gs_cert.c_gn
    assert np.array_equal(back.residuals, gs_cert.residuals)
    assert back.sup_err_vs_oracle == gs_cert.sup_err_vs_oracle
    assert np.array_equal(back.field.values, gs_cert.field.values)
    assert back.radial_profile.q0 == gs_cert.radial_profile.q0


def test_cache_round_trips_the_profile_spline(gs_cert, shooting_profile, tmp_path):
    path = str(tmp_path / "gs.nls2")
    save_ground_state(gs_cert, path)
    back = load_ground_state(path).radial_profile
    assert np.array_equal(back.x, shooting_profile.x)
    assert np.array_equal(back.c, shooting_profile.c)
    assert (back.q0, back.c_tail, back.r_switch) == (
        shooting_profile.q0, shooting_profile.c_tail, shooting_profile.r_switch)
    r = np.linspace(0.0, 45.0, 10001)
    assert np.array_equal(back.q_of(r), shooting_profile.q_of(r))


def test_cache_rejects_a_tampered_profile_table(gs_cert, tmp_path):
    path = str(tmp_path / "gs.nls2")
    save_ground_state(gs_cert, path)
    raw = bytearray(open(path + ".profile", "rb").read())
    raw[len(raw) // 2] ^= 0x01
    with open(path + ".profile", "wb") as fh:
        fh.write(bytes(raw))
    with pytest.raises(CertificationError, match="hash mismatch"):
        load_ground_state(path)


def test_cache_without_a_profile_table_asks_for_a_rebuild(gs_cert, tmp_path):
    path = str(tmp_path / "gs.nls2")
    save_ground_state(gs_cert, path)
    os.remove(path + ".profile")
    with pytest.raises(CertificationError, match="nls2d ground"):
        load_ground_state(path)


# what a run does, in a fresh interpreter: the cache load and the data
# families must not pull in the ODE and spline stack of the set-up path
IMPORT_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import numpy, scipy.fft
before = set(sys.modules)
from nls2d import cli
from nls2d.grid import SpectralGrid
from nls2d.ground_state import load_ground_state, make_initial_data
gs = load_ground_state({cache!r})
grid = SpectralGrid(256, 32.0)
make_initial_data("scaled_q", {{"lam": 1.2}}, grid, gs=gs)
make_initial_data("perturbed_q", {{"lam": 1.2, "eps": 1e-3}}, grid, gs=gs, seed=5)
heavy = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
         "scipy.linalg", "concurrent.futures")
print(sorted(m for m in heavy if m in sys.modules and m not in before))
"""


def test_a_run_loads_q_without_the_ode_stack(gs_cache):
    # scipy.fft itself may load some of these (numpy.testing brings in
    # concurrent.futures); only what the package adds on top counts
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = IMPORT_SCRIPT.format(src=os.path.abspath(src), cache=gs_cache)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cache_loads_a_sidecar_with_a_shooting_tol(gs_cert, tmp_path):
    # an older sidecar carries "tol" under "shooting", the solver's "tol"
    # and its "method", which nothing reads; it must load and certify as a
    # fresh solve does
    path = str(tmp_path / "gs.nls2")
    save_ground_state(gs_cert, path)
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    assert "tol" not in sidecar["shooting"]
    assert "tol" not in sidecar and "method" not in sidecar
    sidecar["shooting"]["tol"] = 1e-12
    sidecar["tol"] = 1e-10
    sidecar["method"] = "petviashvili"
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
    back = load_ground_state(path)
    assert back.certified
    assert (back.massQ, back.gradQ_sq, back.l6Q_6) == (
        gs_cert.massQ, gs_cert.gradQ_sq, gs_cert.l6Q_6)
    assert back.sup_err_vs_oracle == gs_cert.sup_err_vs_oracle


def test_cache_rejects_tampering(gs_cert, tmp_path):
    path = str(tmp_path / "gs.nls2")
    save_ground_state(gs_cert, path)
    raw = bytearray(open(path, "rb").read())
    raw[100] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(raw))
    with pytest.raises(CertificationError, match="hash mismatch"):
        load_ground_state(path)


def test_cache_requires_sidecar(gs_cert, tmp_path):
    path = str(tmp_path / "gs.nls2")
    save_ground_state(gs_cert, path)
    os.remove(path + ".json")
    with pytest.raises(CertificationError, match="sidecar"):
        load_ground_state(path)


def test_cache_write_hashes_the_bytes_it_writes(gs_cert, tmp_path, monkeypatch):
    # the sidecar's checksum is the sha256 of the checkpoint file, taken
    # as the bytes are written: the checkpoint is never read back
    path = str(tmp_path / "gs.nls2")
    reads = []
    real_open = open

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode:
            reads.append(os.fspath(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    save_ground_state(gs_cert, path)
    monkeypatch.undo()
    assert reads == []
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(path + ".json") as fh:
        assert json.load(fh)["checksum"] == digest


def test_cache_load_opens_the_checkpoint_once(gs_cache, monkeypatch):
    # the field is parsed from the bytes whose hash was checked, not from a
    # second read that could see another file
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    gs = load_ground_state(gs_cache)
    assert gs.certified
    assert opened.count(gs_cache) == 1
    assert opened.count(gs_cache + ".json") == 1
    assert opened.count(gs_cache + ".profile") == 1
