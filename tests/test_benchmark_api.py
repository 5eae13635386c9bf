"""The benchmark's hold on the package API.

`benchmark/` is collected on its own, so a refactor that deletes a name the
benchmark's tracer wraps, or changes a constructor call, the
`step_strang(f, dt)` call, the `evolve` call or the `write_trajectory_csv`
call its workloads make, would otherwise break only benchmark runs.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# run in a child interpreter: install() rebinds module attributes of the
# package, which must not leak into the rest of the test session
SCRIPT = """
import sys
from types import SimpleNamespace
sys.path[:0] = [{src!r}, {bench!r}]
import tracing
from nls2d import evolution
from nls2d.evolution import ProbeSpec, StepControls, step_strang
from nls2d.functionals import conserved
from nls2d.grid import Field, SpectralGrid
tracing.install(tracing.Tracer({spool!r}))
controls = StepControls(dt0=1e-3, dt_min=1e-3, dt_max=1e-3, scheme="kahan_li6")
probes = ProbeSpec(cadence=0.03, snapshot_times=(0.03,))
g = SpectralGrid(16, 8.0)
assert g.K2.shape == (16, 16)
f = Field(g, [[0.5] * 16] * 16)
assert abs(step_strang(f, 1e-3).t - 1e-3) < 1e-15
assert abs(conserved(f).mass - 0.25 * 8.0**2) < 1e-12
# the soliton workload's call: evolve, then the last kept snapshot
rec = evolution.evolve(f, 0.03, controls, SimpleNamespace(qq_gq=1.0), probes)
assert abs(rec.snapshots[-1].t - 0.03) < 1e-12
evolution.write_trajectory_csv(rec, {csv!r})
"""


def test_benchmark_tracer_installs(tmp_path):
    code = SCRIPT.format(src=os.path.join(ROOT, "src"),
                         bench=os.path.join(ROOT, "benchmark"),
                         spool=str(tmp_path),
                         csv=str(tmp_path / "trajectory.csv"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trajectory.csv").read_text().startswith("t,grad_sq,")
