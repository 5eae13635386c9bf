"""End-to-end harness and CLI behavior on small, fast configurations."""

import csv
import json
import os

import numpy as np
import pytest

from nls2d import (
    CertificationError,
    cmd_sweep,
    cmd_verify,
    load_ground_state,
    prepare_ground_state,
    run_single,
    validate_config,
)
from nls2d.cli import main
from nls2d.harness import _aligned_snapshot_times, cmd_ground


def base_cfg(gs_cache, **over):
    cfg = {
        "grid": {"n": 256, "L": 32.0},
        "ground_state": {"cache": gs_cache},
        "initial_data": {"family": "gaussian",
                         "params": {"amplitude": 0.3, "width": 1.2}},
        "t_end": 0.2,
        "probes": {"cadence": 0.05},
        "diagnostics": {"scattering": False, "virial": False,
                        "blowup_bound": False},
    }
    cfg.update(over)
    return validate_config(cfg)


def test_prepare_ground_state_from_cache(gs_cache, gs_cert):
    cfg = base_cfg(gs_cache)
    gs = prepare_ground_state(cfg)
    assert gs.certified
    assert gs.massQ == gs_cert.massQ


def test_prepare_ground_state_rejects_uncertifiable():
    cfg = validate_config({"ground_state": {"n": 256, "L": 32.0}})
    with pytest.raises(CertificationError, match="certification"):
        prepare_ground_state(cfg)


def test_cmd_ground_round_trip(gs_cache, tmp_path, capsys):
    cfg = base_cfg(gs_cache)
    path = cmd_ground(cfg, str(tmp_path))
    out = capsys.readouterr().out
    assert "certified       True" in out
    back = load_ground_state(path)
    assert back.certified


def test_aligned_snapshot_times():
    times = _aligned_snapshot_times(0.0, (0.0, 2.0), 0.05)
    assert len(times) >= 3
    assert times[0] == pytest.approx(0.0)
    assert times[-1] == pytest.approx(2.0)
    for t in times:
        assert abs(t / 0.05 - round(t / 0.05)) < 1e-9
    with pytest.raises(ValueError, match="too narrow"):
        _aligned_snapshot_times(0.0, (0.0, 0.05), 0.05)


def test_run_single_artifacts(gs_cache, gs_cert, tmp_path):
    cfg = base_cfg(gs_cache)
    report = run_single(cfg, gs_cert, str(tmp_path), seed=0)
    for name in ("verdict.json", "trajectory.csv", "trajectory.outcome.json",
                 "report.json"):
        assert (tmp_path / name).exists()
    assert report["verdict"]["case"] == "scatter"
    assert report["outcome"]["outcome"] == "ran_to_t_end"
    assert report["agreement"] == "inconclusive"  # no detector enabled
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk == json.loads(json.dumps(report))


def test_run_single_with_scattering(gs_cache, gs_cert, tmp_path):
    cfg = base_cfg(
        gs_cache,
        t_end=2.0,
        probes={"cadence": 0.05},
        diagnostics={"scattering": True, "virial": True, "virial_R": 8.0,
                     "blowup_bound": False},
    )
    report = run_single(cfg, gs_cert, str(tmp_path), seed=0)
    assert (tmp_path / "scattering.json").exists()
    assert report["scattering"]["verdict"] == "scatter_like"
    assert report["agreement"] == "agree"
    # by t = 2 the dispersing hump touches the box boundary, so the virial
    # trace says so in its note instead of writing a bogus variance
    assert (tmp_path / "virial.csv").exists()
    assert report["virial_note"] is not None
    assert "boundary" in report["virial_note"]


def test_run_single_with_virial(gs_cache, gs_cert, tmp_path):
    cfg = base_cfg(
        gs_cache,
        t_end=0.3,
        probes={"cadence": 0.05, "snapshot_every": 1},
        diagnostics={"scattering": False, "virial": True, "virial_R": 8.0,
                     "blowup_bound": False},
    )
    report = run_single(cfg, gs_cert, str(tmp_path), seed=0)
    assert report["virial_note"] is None
    assert (tmp_path / "virial.csv").exists()
    with open(tmp_path / "virial.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "V", "Vp_formula", "Vpp_formula", "Vpp_fd",
                       "z_R", "A_R"]
    assert len(rows) == 8  # header + 7 snapshots
    # the detector's snapshot times do not enter the virial trace
    cfg["diagnostics"]["scattering"] = True
    run_single(cfg, gs_cert, str(tmp_path / "both"), seed=0)
    assert (tmp_path / "both" / "virial.csv").read_bytes() == \
        (tmp_path / "virial.csv").read_bytes()


def test_virial_table_survives_snapshots_past_the_boundary_guard(
        gs_cache, gs_cert, tmp_path):
    # the hump reaches the edge of the 16-box, so the variance guard trips
    # on the later snapshots; the localized columns need no such guard
    cfg = base_cfg(
        gs_cache,
        grid={"n": 128, "L": 16.0},
        initial_data={"family": "gaussian",
                      "params": {"amplitude": 0.8, "width": 1.45}},
        t_end=3.0,
        probes={"cadence": 0.05, "variance": True},
        diagnostics={"scattering": False, "virial": True,
                     "blowup_bound": False},
    )
    report = run_single(cfg, gs_cert, str(tmp_path), seed=0)
    with open(tmp_path / "virial.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    V = np.array([float(r["V"]) for r in rows])
    guarded = np.isnan(V)
    assert 0 < guarded.sum() < len(rows)
    # the same snapshots carry a NaN variance in trajectory.csv
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        probe_var = {r["t"]: float(r["variance"]) for r in csv.DictReader(fh)}
    assert list(guarded) == [np.isnan(probe_var[r["t"]]) for r in rows]
    assert np.all(np.isnan([float(r["Vp_formula"]) for r in rows]) == guarded)
    for col in ("Vpp_formula", "z_R", "A_R"):
        assert np.all(np.isfinite([float(r[col]) for r in rows]))
    assert report["virial_note"] == (
        f"V and Vp_formula are NaN on {guarded.sum()} of {len(rows)} "
        "snapshots: boundary mass fraction exceeds 1e-10")


def test_scattering_verdict_ignores_the_virial_stride(gs_cache, gs_cert, tmp_path):
    # the stride lands on T2, so a stored copy of the final field used to
    # make the detector read d(T2) = 0 in place of the d just before T2
    def run(name, every, virial):
        cfg = base_cfg(
            gs_cache,
            grid={"n": 256, "L": 64.0},
            initial_data={"family": "scaled_q", "params": {"lam": 0.8}},
            t_end=1.0,
            probes={"cadence": 0.05, "snapshot_every": every},
            diagnostics={"scattering": True, "virial": virial,
                         "blowup_bound": False},
        )
        report = run_single(cfg, gs_cert, str(tmp_path / name), seed=0)
        return report, tmp_path / name

    report, plain = run("plain", None, False)
    assert report["scattering"]["d_mid_over_H1"] == pytest.approx(4.67e-3, rel=0.02)
    expected = (plain / "scattering.json").read_bytes()
    for name, every in (("every_1", 1), ("virial", None)):
        _, out = run(name, every, name == "virial")
        assert (out / "scattering.json").read_bytes() == expected


def test_sweep_reruns_rows_of_another_config(gs_cache, tmp_path):
    def cfg(*lambdas):
        return base_cfg(
            gs_cache,
            t_end=0.05,
            probes={"cadence": 0.01},
            sweep={"lambdas": list(lambdas), "family": "perturbed_q", "eps": 1e-3},
            seed=11,
        )

    def region_map(lam, out):
        with open(cmd_sweep(cfg(lam), str(out)), "rb") as fh:
            return fh.read()

    expected = region_map(1.3, tmp_path / "fresh")
    out = tmp_path / "reused"
    region_map(1.2, out)
    assert region_map(1.3, out) == expected
    # a truncated report is rerun as well
    report = out / "row_000" / "report.json"
    report.write_text(report.read_text()[:40])
    assert region_map(1.3, out) == expected
    # the same row in a longer sweep resumes
    stamp = os.path.getmtime(out / "row_000" / "trajectory.csv")
    cmd_sweep(cfg(1.3, 1.2), str(out))
    assert os.path.getmtime(out / "row_000" / "trajectory.csv") == stamp


def test_sweep_resume_and_determinism(gs_cache, tmp_path):
    cfg = base_cfg(
        gs_cache,
        t_end=0.3,
        probes={"cadence": 0.01},
        sweep={"lambdas": [1.2], "family": "perturbed_q", "eps": 1e-3},
        seed=11,
    )
    out1 = tmp_path / "sweep1"
    path1 = cmd_sweep(cfg, str(out1))
    with open(path1, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "ME", "G0_sq", "verdict", "outcome",
                       "t_star_or_decay"]
    assert len(rows) == 2
    assert rows[1][3] == "blowup_or_diverge"
    assert rows[1][4] == "blowup_detected"
    assert float(rows[1][5]) > 0.0

    # resume: a second call must reuse the row report, byte for byte
    stamp = os.path.getmtime(out1 / "row_000" / "trajectory.csv")
    before = open(path1, "rb").read()
    cmd_sweep(cfg, str(out1))
    assert os.path.getmtime(out1 / "row_000" / "trajectory.csv") == stamp
    assert open(path1, "rb").read() == before


def test_sweep_records_a_failed_row(gs_cache, tmp_path):
    # at lambda = 0.05 the datum does not fit the box, so make_initial_data
    # raises: the row keeps its lambda and the error, with empty numeric
    # cells and verdict, and writes no row.json, so a rerun retries it
    cfg = base_cfg(
        gs_cache,
        t_end=0.05,
        probes={"cadence": 0.01},
        sweep={"lambdas": [1.2, 0.05], "family": "perturbed_q", "eps": 1e-3},
        seed=11,
    )
    path = cmd_sweep(cfg, str(tmp_path), workers=1)
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\r\n")
    assert lines[0] == b"lambda,ME,G0_sq,verdict,outcome,t_star_or_decay"
    assert lines[1].startswith(b"1.2,0.80") and b"failed" not in lines[1]
    assert lines[2] == (
        b"0.05,,,,failed: box L=32 too small for family 'perturbed_q': "
        b"boundary level 3.54e-01 exceeds 1e-06,")
    assert lines[3:] == [b""]
    assert (tmp_path / "row_000" / "row.json").exists()
    assert not (tmp_path / "row_001" / "row.json").exists()
    # the failed row keeps its full traceback; the good row has none
    error = (tmp_path / "row_001" / "error.txt").read_text()
    assert error.startswith("Traceback (most recent call last):")
    assert "ValueError: box L=32 too small" in error
    assert "make_initial_data" in error
    assert not (tmp_path / "row_000" / "error.txt").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_writes_no_cache_copy(gs_cache, tmp_path, workers):
    # the rows take the parent's certified ground state in memory
    cfg = base_cfg(
        gs_cache,
        t_end=0.02,
        probes={"cadence": 0.01},
        sweep={"lambdas": [1.2, 1.3], "family": "perturbed_q", "eps": 1e-3},
        seed=11,
    )
    cmd_sweep(cfg, str(tmp_path), workers=workers)
    assert sorted(os.listdir(tmp_path)) == ["region_map.csv", "row_000", "row_001"]
    for row in ("row_000", "row_001"):
        assert (tmp_path / row / "row.json").exists()


def test_cli_explain_config(capsys):
    assert main(["explain-config"]) == 0
    assert "Configuration keys" in capsys.readouterr().out


def test_cli_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"n": 100}}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "grid.n" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path)]) == 2

    capsys.readouterr()
    tail = tmp_path / "tail.json"
    tail.write_text(json.dumps({"controls": {"tail_max": 0.5}}))
    assert main(["run", "--config", str(tail), "--out", str(tmp_path)]) == 2
    assert "controls: tail_max" in capsys.readouterr().err

    # the shooting oracle takes no tolerance, so the key is unknown
    shooting = tmp_path / "shooting.json"
    shooting.write_text(json.dumps({"ground_state": {"shooting_tol": 0.5}}))
    assert main(["ground", "--config", str(shooting), "--out", str(tmp_path)]) == 2
    assert "ground_state.shooting_tol: unknown key" in capsys.readouterr().err


def test_cli_verify_takes_no_config(tmp_path, capsys):
    # the battery runs on fixed grids, so a config is an argparse error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(tmp_path / "cfg.json")])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_cli_requires_out_dir(gs_cache, tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"ground_state": {"cache": gs_cache}}))
    assert main(["run", "--config", str(cfgp)]) == 2
    assert "output_dir" in capsys.readouterr().err


def test_cli_negative_seed(gs_cache, tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"ground_state": {"cache": gs_cache}}))
    rc = main(["run", "--config", str(cfgp), "--out", str(tmp_path),
               "--seed", "-1"])
    assert rc == 2


def test_cli_sweep_rejects_nonpositive_workers(tmp_path, capsys):
    # checked before anything runs: an empty sweep would otherwise fail at
    # run time (exit 4), and a valid one fall back to the config or run serially
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"sweep": {"lambdas": []}}))
    for workers in ("0", "-2"):
        rc = main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "sweep"),
                   "--workers", workers])
        assert rc == 2
        assert "workers: must be positive" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_cli_certification_exit(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"ground_state": {"n": 256, "L": 32.0}}))
    rc = main(["ground", "--config", str(cfgp), "--out", str(tmp_path)])
    assert rc == 3
    assert "certification" in capsys.readouterr().err


def test_cli_run_failure_exit(gs_cache, tmp_path, capsys):
    # a width-8 hump cannot sit in an L = 32 box: admissibility error
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "ground_state": {"cache": gs_cache},
        "initial_data": {"family": "gaussian",
                         "params": {"amplitude": 1.0, "width": 8.0}},
        "t_end": 0.1,
    }))
    rc = main(["run", "--config", str(cfgp), "--out", str(tmp_path)])
    assert rc == 4
    assert "too small" in capsys.readouterr().err


def test_cli_missing_family_parameter_exit(gs_cache, tmp_path, capsys):
    # a family parameter with no default, or a boosted datum's inner that
    # is not an object, is a run failure on one line that names the family
    # and the key, not a KeyError or AttributeError traceback
    cfgp = tmp_path / "cfg.json"
    hump = {"family": "gaussian", "params": {"amplitude": 0.3}}
    for datum, family, key in (
            ({"family": "gaussian", "params": {"width": 1.0}}, "gaussian",
             "amplitude"),
            ({"family": "scaled_q", "params": {}}, "scaled_q", "lam"),
            ({"family": "boosted", "params": {"xi": [0.0, 0.0]}}, "boosted",
             "inner"),
            ({"family": "boosted", "params": {"inner": hump}}, "boosted", "xi"),
            ({"family": "boosted", "params": {"inner": "gaussian",
                                              "xi": [0.0, 0.0]}},
             "boosted", "inner")):
        cfgp.write_text(json.dumps({"ground_state": {"cache": gs_cache},
                                    "initial_data": datum, "t_end": 0.1}))
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert f"family {family!r} needs the parameter {key!r}" in err
        assert len(err.splitlines()) == 1


def test_cli_run_end_to_end(gs_cache, tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "grid": {"n": 256, "L": 32.0},
        "ground_state": {"cache": gs_cache},
        "initial_data": {"family": "gaussian",
                         "params": {"amplitude": 0.3, "width": 1.2}},
        "t_end": 0.2,
        "probes": {"cadence": 0.05},
        "diagnostics": {"scattering": False, "virial": False,
                        "blowup_bound": False},
    }))
    out = tmp_path / "artifacts"
    assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "verdict    scatter" in text
    assert (out / "report.json").exists()


def test_cmd_verify_battery(capsys):
    assert cmd_verify()
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert "9/9" in out


def test_cmd_verify_detects_a_broken_identity(gs_cache, capsys, monkeypatch):
    # sanity-check that the battery can actually fail: sabotage the sharp
    # constant used by the inequality checks
    import nls2d.harness as hmod

    real = hmod.gn_inequality_check

    def skewed(f, gs):
        return real(f, gs) - 0.5

    monkeypatch.setattr(hmod, "gn_inequality_check", skewed)
    ok = cmd_verify()
    assert not ok
    assert "[FAIL]" in capsys.readouterr().out
