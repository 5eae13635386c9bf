"""Pseudospectral laboratory for the 2D focusing quintic Schrodinger equation.

Ground states via a fixed-point scheme certified against a radial shooting
oracle, symmetric split-step time evolution, renormalized threshold
quantities, virial/variance diagnostics, and a scatter-vs-blow-up
classifier with a CLI harness.
"""

from .grid import (
    Field,
    Moments,
    SpectralGrid,
    boundary_mass_fraction,
    boundary_sup,
    moments,
    read_checkpoint,
    write_checkpoint,
)
from .functionals import (
    ConservedSet,
    RenormalizedSet,
    WindowReport,
    conserved,
    galilean_boost,
    renormalized,
    window_check,
)
from .ground_state import (
    CertificationError,
    GroundState,
    RadialProfile,
    gn_inequality_check,
    load_ground_state,
    make_initial_data,
    save_ground_state,
    solve_petviashvili,
    solve_radial_shooting,
)
from .evolution import (
    BLOWUP_DETECTED,
    RAN_TO_T_END,
    UNDERRESOLVED,
    ProbeSpec,
    StepControls,
    TrajectoryRecord,
    detect_blowup,
    evolve,
    step_strang,
    write_trajectory_csv,
)
from .diagnostics import (
    BoundsMargins,
    Cutoff,
    ScatteringReport,
    VirialTrace,
    asymptotic_state_residuals,
    blowup_time_bound,
    energy_gradient_bounds_check,
    localized_variance,
    radial_asymmetry,
    scattering_detect,
    variance,
    virial_check_full,
    write_scattering_json,
    write_virial_csv,
)
from .classifier import (
    Verdict,
    classify,
    is_radial,
    reconcile,
    write_verdict_json,
)
from .config import ConfigError, explain_config, load_config, validate_config
from .harness import (
    cmd_ground,
    cmd_run,
    cmd_sweep,
    cmd_verify,
    prepare_ground_state,
    run_single,
)

__version__ = "0.1.0"
