"""The library's defaulted parameters, pinned.

ROADMAP aim 2 counts the options of the public API: every parameter with
a default, by ``inspect.signature``, of every function and every public
(non-underscore) method of every class named in the ``__all__`` of a
module of the package (``cli`` has none), and of the ``__init__`` that
such a class defines itself (a dataclass's generated one included).
A class exported by two modules (``TermBank``) counts once for each.  A
change that adds or removes a defaulted parameter updates this list on
purpose.
"""

import importlib
import inspect
import pkgutil

import fermitheta


DEFAULTED = [
    "algebra.PauliString.from_label.phase",
    "algebra.PauliString.__init__.phase_power",
    "algebra.OperatorSet.__init__.provenance",
    "algebra.majorana_to_pauli.hermitize",
    "algebra.TermBank.apply.terms",
    "index.index_seesaw.seed",
    "index.index_estimate.seed",
    "kernel.RandomStream.__init__.stream_index",
    "lab.free_energy_experiment.threads",
    "lab.variance_identity_experiment.threads",
    "lab.tail_experiment.seed",
    "lab.tail_experiment.threads",
    "lab.mgf_check.seed",
    "lab.mgf_check.threads",
    "lab.exp_moment_check.seed",
    "lab.exp_moment_check.threads",
    "lab.classical_overlap_experiment.seed",
    "lab.classical_overlap_experiment.threads",
    "lab.glassiness_contrast.seed",
    "lab.glassiness_contrast.threads",
    "models.TermBank.apply.terms",
    "models.sample_classical_pspin.stream",
    "reports.ExperimentReport.__init__.schema_version",
    "reports.Verdict.__init__.details",
    "theta.ThetaResult.__init__.converged",
    "theta.theta_sdp.tol",
]


def _callables(name, obj):
    """(qualified name, function) of an exported function, or of each
    public method of an exported class and its own ``__init__``."""
    if not inspect.isclass(obj):
        return [(name, obj)] if callable(obj) else []
    methods = []
    for key, value in vars(obj).items():
        if isinstance(value, (classmethod, staticmethod)):
            value = value.__func__
        if (key == "__init__" or not key.startswith("_")) and inspect.isfunction(value):
            methods.append((f"{name}.{key}", value))
    return methods


def defaulted_parameters() -> list[str]:
    found = []
    for info in pkgutil.iter_modules(fermitheta.__path__):
        module_name = info.name
        module = importlib.import_module(f"fermitheta.{module_name}")
        for name in getattr(module, "__all__", ()):
            for qualified, func in _callables(name, getattr(module, name)):
                found.extend(
                    f"{module_name}.{qualified}.{p.name}"
                    for p in inspect.signature(func).parameters.values()
                    if p.default is not inspect.Parameter.empty
                )
    return found


def test_defaulted_parameters_pinned():
    assert defaulted_parameters() == DEFAULTED
