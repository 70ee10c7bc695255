"""Spectral shift operators and spectral shift functions for pairs of
Hermitian matrices, built on logarithms of matrix-valued functions with
nonnegative imaginary part in the upper half-plane.

The namespace is lazy: ``import kreinshift`` loads no submodule, and each
public name below imports its submodule on first access, so a command
line process pays only for the layers its command runs.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines each
_SUBMODULES = {
    "errors": ("ConvergenceError", "KreinShiftError", "PreconditionError"),
    "matkit": (
        "HermitianEig",
        "SignedFactorization",
        "apply_spectral_function",
        "eig_hermitian",
        "expm",
        "sign_factorization",
        "solve_shifted",
    ),
    "oplog": (
        "Branch",
        "BridgeResult",
        "logm_antidissipative",
        "logm_dissipative",
        "logm_oracle_diag",
        "scalar_log",
        "tr_log_det_bridge",
    ),
    "herglotz": (
        "ConvergenceRecord",
        "HerglotzFamily",
        "ShiftProjection",
        "SignBlock",
        "boundary_log",
        "shift_projection",
    ),
    "shift": (
        "ShiftProfile",
        "auto_grid",
        "chain_and_monotonicity",
        "compute_profile",
        "example_3_9",
        "herglotz_reconstruction_residual",
        "safe_grid",
        "trace_formula_residual",
        "trace_identity_checks",
        "xi_at",
        "xi_counting_oracle",
        "xi_operator",
        "xi_via_det",
    ),
    "averaging": (
        "PerturbationPath",
        "TestFunction",
        "averaged_pairing_lhs",
        "averaged_pairing_rhs",
        "derivative_identity_residual",
        "operator_average_increment",
        "operator_average_residual",
        "operator_increment_residual",
    ),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
