"""Two-way fixed-effects difference-in-differences estimation with
implicit-weight and effect-homogeneity diagnostics for staggered-adoption
panels."""

from .panel import (
    AdoptionSchedule,
    Observation,
    PanelDataset,
    ValidationReport,
    apply_adoption_schedule,
    load_panel_csv,
    load_schedule_csv,
    schedule_from_data,
    validate,
    write_panel_csv,
)
from .lsq import t_test
from .twfe import TwfeFit, fit_twfe
from .diagnostics import (
    HomogeneityTest,
    ResidualScatter,
    WeightGrid,
    WeightReport,
    homogeneity_test,
    residual_scatter,
    weight_grid,
    weight_report,
)
from .robustness import (
    RobustnessSweep,
    SweepPoint,
    leave_one_unit_out,
    sweep_end_year,
    sweep_post_horizon,
)
from .synth import (
    EffectModel,
    EffectSummary,
    SyntheticSpec,
    generate_panel,
    spec_from_json,
    spec_to_json,
    true_effect_summary,
)

__version__ = "0.1.0"
