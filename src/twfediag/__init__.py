"""Two-way fixed-effects difference-in-differences estimation with
implicit-weight and effect-homogeneity diagnostics for staggered-adoption
panels.

The public names below are loaded on first use (PEP 562), so `import
twfediag` and `twfediag --version` load neither numpy nor any layer
module; `from twfediag import fit_twfe` loads what fit_twfe needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "panel": (
        "AdoptionSchedule",
        "Observation",
        "PanelDataset",
        "ValidationReport",
        "apply_adoption_schedule",
        "load_panel_csv",
        "load_schedule_csv",
        "schedule_from_data",
        "validate",
        "write_panel_csv",
    ),
    "lsq": ("t_test",),
    "twfe": ("TwfeFit", "fit_twfe"),
    "diagnostics": (
        "HomogeneityTest",
        "ResidualScatter",
        "WeightGrid",
        "WeightReport",
        "homogeneity_test",
        "residual_scatter",
        "weight_grid",
        "weight_report",
    ),
    "robustness": (
        "RobustnessSweep",
        "SweepPoint",
        "leave_one_unit_out",
        "sweep_end_year",
        "sweep_post_horizon",
    ),
    "synth": (
        "EffectModel",
        "EffectSummary",
        "SyntheticSpec",
        "generate_panel",
        "spec_from_json",
        "spec_to_json",
        "true_effect_summary",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
