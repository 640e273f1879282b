"""Fisher-Rao volumes of classical, quantum, separable, and entangled
two-mode Gaussian state families.

Covariance-matrix algebra and classification live in ``states``, the metric
and its Monte Carlo oracle in ``metric``, the two regularizers in
``regularizers``, the standard-form chart and closed forms in ``twomode``,
and the seeded volume integrals and sweeps in ``integrate``.

The names below are imported on first use (PEP 562), so ``import gaussvol``
loads neither numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the names it exports
_EXPORTS = {
    "errors": (
        "AsymmetricMatrixError",
        "DomainError",
        "InvalidArgumentError",
        "MatrixParseError",
        "NumericError",
    ),
    "integrate": (
        "DOMAIN_ORDER",
        "Box",
        "IntegrationRequest",
        "IntegrationResult",
        "JointVolumes",
        "SweepRow",
        "SweepTable",
        "mc_joint_volumes",
        "mc_volume",
        "phi_box",
        "sweep",
        "upsilon_box",
    ),
    "metric": (
        "BoundMatrix",
        "MetricAtPoint",
        "ParamChart",
        "bound_matrix",
        "det_bound_holds",
        "full_chart",
        "metric_closed_form",
        "metric_mc_oracle",
        "param_index",
        "volume_element",
    ),
    "regularizers": ("RegKind", "RegularizerSpec", "log1p_det_pow", "phi", "regularizer_values",
                     "upsilon"),
    "states": (
        "DEFAULT_TOL",
        "StateClass",
        "adjugate",
        "apply_congruence",
        "classify",
        "dim_modes",
        "is_classical",
        "is_quantum",
        "is_separable_two_mode",
        "is_symplectic",
        "mode_permutation_matrix",
        "partial_transpose_two_mode",
        "random_symplectic",
        "require_covariance",
        "symplectic_eigenvalues",
        "symplectic_form",
        "trace_adjugate",
    ),
    "twomode": (
        "CanonicalPoint",
        "DomainBounds",
        "DomainTag",
        "SimonInvariants",
        "canonical_chart",
        "canonical_det",
        "canonical_embed",
        "canonical_extract",
        "canonical_trace_adjugate",
        "closed_form_metric",
        "domain_bounds",
        "domain_labels",
        "domain_mask",
        "in_domain",
        "metric_components",
        "simon_invariants",
        "volume_density",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
