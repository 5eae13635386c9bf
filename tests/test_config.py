"""Config schema validation and the self-describing explain output."""

import json

import pytest

from nls2d import ConfigError, explain_config, load_config, validate_config


def test_defaults_validate():
    cfg = validate_config({})
    assert cfg["grid"]["n"] == 512
    assert cfg["grid"]["L"] == 32.0
    assert cfg["t_end"] == 5.0
    assert cfg["initial_data"]["family"] == "scaled_q"


def test_partial_override_merges():
    cfg = validate_config({"grid": {"n": 256}, "t_end": 2})
    assert cfg["grid"]["n"] == 256
    assert cfg["grid"]["L"] == 32.0  # untouched default
    assert cfg["t_end"] == 2.0      # int coerced to float


def test_all_problems_reported_at_once():
    bad = {
        "grid": {"n": 100, "L": -3.0},
        "t_end": "soon",
        "controls": {"cfl_c": 2.0},
        "mystery": 1,
    }
    with pytest.raises(ConfigError) as exc:
        validate_config(bad)
    text = str(exc.value)
    for needle in ("grid.n", "grid.L", "t_end", "controls.cfl_c", "mystery"):
        assert needle in text


def test_bool_is_not_a_number():
    with pytest.raises(ConfigError, match="got bool"):
        validate_config({"t_end": True})


def test_unknown_nested_key():
    with pytest.raises(ConfigError, match="probes.cadnce"):
        validate_config({"probes": {"cadnce": 0.1}})


def test_cross_field_checks():
    with pytest.raises(ConfigError, match="dt_min <= dt_max"):
        validate_config({"controls": {"dt_min": 1e-2, "dt_max": 1e-3}})
    # a fixed dt below every default is a valid run
    fixed = validate_config({"controls": {"dt_min": 5e-4, "dt_max": 5e-4}})
    assert fixed["controls"]["dt_min"] == fixed["controls"]["dt_max"] == 5e-4
    # a value the key's own check takes but the step controls reject
    with pytest.raises(ConfigError, match=r"controls: tail_max must lie in \(0, 0\.1\]"):
        validate_config({"controls": {"tail_max": 0.5}})
    with pytest.raises(ConfigError, match=r"diagnostics.kappa: must lie in \(0, 0\.1\)"):
        validate_config({"diagnostics": {"kappa": 0.2}})
    with pytest.raises(ConfigError, match="exceeds t_end"):
        validate_config({"t_end": 1.0, "diagnostics": {"window": [0.0, 2.0]}})


def test_family_whitelist():
    with pytest.raises(ConfigError, match="initial_data.family"):
        validate_config({"initial_data": {"family": "vortex"}})


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(bad))


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"n": 128, "L": 16.0}, "seed": 42}))
    cfg = load_config(str(path))
    assert cfg["grid"]["n"] == 128
    assert cfg["seed"] == 42


def test_explain_config_is_complete_and_parses():
    text = explain_config()
    for key in ("grid.n", "ground_state.cache", "initial_data.family",
                "controls.dt_min", "probes.cadence", "diagnostics.window",
                "sweep.lambdas", "t_end", "seed", "output_dir"):
        assert key in text
    for deleted in ("dt0", "shooting_tol", "boundary_tol", "ground_state.tol",
                    "max_iter", "kappa0", "grad_blowup_factor"):
        assert deleted not in text
    # the thresholds that became constants are unknown keys
    for path in ("boundary_tol", "ground_state.tol", "ground_state.max_iter",
                 "diagnostics.kappa0", "controls.grad_blowup_factor"):
        *parents, key = path.split(".")
        user = {key: 0.5}
        for parent in reversed(parents):
            user = {parent: user}
        with pytest.raises(ConfigError, match=f"{path}: unknown key"):
            validate_config(user)
    # L is the full side of the box, not a half-width
    assert "half-width" not in text
    # the trailing block is the full default config as valid JSON
    marker = "Defaults as a complete config:"
    tail = text[text.index(marker) + len(marker):]
    defaults = json.loads(tail)
    assert validate_config(defaults) == validate_config({})


def test_validated_config_shares_nothing_with_the_defaults():
    # a caller may edit its validated config in place; the defaults, and
    # every config validated after it, must not see the edit
    fresh = json.dumps(validate_config({}))
    explained = explain_config()
    cfg = validate_config({})
    cfg["sweep"]["lambdas"].append(0.8)
    cfg["initial_data"]["params"]["lam"] = 1.2
    cfg["grid"]["n"] = 64
    assert json.dumps(validate_config({})) == fresh
    assert explain_config() == explained
