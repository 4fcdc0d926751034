"""Statistical distances and speeds of parametrized quantum states.

Every public name lives in one of the modules below and is looked up
there on each access (PEP 562), so ``import qspeed`` loads no submodule
and a process loads only the modules it uses.  Nothing is cached here:
``qspeed.X`` is whatever ``qspeed.<module>.X`` holds at that moment.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "CollectiveSpin", "HeisenbergLimit", "NonHermitianBound", "Partition",
        "SuperopNorm", "WitnessReport", "asep_bound", "bhatia_davis_bound",
        "collective_spin", "curve_length", "heisenberg_limit", "ksep_bound",
        "local_generator_sep_bound", "nonhermitian_speed_bound",
        "spin_squeezing_xi", "superop_norm", "witness",
    ),
    "classical": (
        "ParametricDist", "barankin_bound", "classical_speed", "dist_alpha",
        "dist_schatten_alpha", "gen_fisher", "mixture_dist",
        "moment_lower_bound", "product_dist", "schatten_fisher",
        "speed_from_samples",
    ),
    "errors": (
        "DegenerateInputError", "InvalidInputError",
        "NumericalConsistencyError", "QSpeedError",
    ),
    "estimation": (
        "ContinuousModel", "CramerRaoReport", "EstimationResult",
        "MedianCheck", "cauchy_location", "cramer_rao_check",
        "discrimination_game", "discrimination_povm",
        "discrimination_probability", "gaussian_location",
        "laplace_location", "median_check", "median_dispersion_vs_bound",
        "quantum_median_bound", "quantum_median_chain",
    ),
    "matcore": ("Superoperator", "jordan_hahn", "schatten_norm"),
    "oracle": (
        "SearchConfig", "brute_force_max", "finite_diff_speed",
        "random_instance", "random_instances",
    ),
    "quantum": (
        "POVM", "ParametricFamily", "bures_distance", "fidelity",
        "induced_dist", "induced_parametric", "nonhermitian_pure_speed",
        "optimal_povm", "pure_two_projector_povm", "qfi",
        "schatten_distance", "schatten_speed", "sld", "statistical_speed",
        "thermal_family", "thermal_gen_fisher", "trace_distance",
        "trace_speed", "weak_value_fisher",
    ),
    "seeding": ("generator",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
