"""Clifford-algebra embeddings of m-qubit states.

Density matrices are expanded over the graded basis of a hermitian Clifford
algebra representation; their spectra become closed-form functions of
rotation invariants, and admissible parameter regions become generalized
Bloch spheres.  Every closed form ships with an independent eigensolver
oracle to check it against.

The public names below are imported on first use (PEP 562), so importing
one module of the package, such as the CLI, loads only what it needs.
"""

from importlib import import_module

# public name -> the module that defines it
_OWNERS = {name: module for module, names in {
    "clifford": ("CliffordBasis", "basis_element", "cached_basis", "full_basis",
                 "verify_algebra"),
    "coords": ("AntisymTensor", "StateCoords", "antisym", "coords_from_json", "coords_to_json",
               "decode", "encode", "state_coords", "tensor_config", "vector"),
    "domains": ("DomainVerdict", "min_eigenvalue_verdict", "positivity", "sample_domain"),
    "figures": ("figure_columns",),
    "identities": ("char_poly", "conjugate_state", "descartes_positivity", "det_identity_check",
                   "dual_tensor", "epsilon_D3", "factorized_charpoly", "pseudo_vector_V",
                   "quartet_eigenvalues", "rT4_domain", "scale_dimension", "spin_lift",
                   "tunnel_membership", "tunnel_spectrum", "z_from_coords", "z_variable"),
    "invariants": ("InvariantSet", "frobenius_r", "pfaffian", "trace_T4", "two_tensor_invariants"),
    "linalg": ("exp_minus_i_hermitian", "hermitian_eigenvalues", "matrix_from_json",
               "matrix_to_json"),
    "spectra": ("Spectrum", "bordered_parts", "closed_form_spectrum", "normal_form",
                "numeric_spectrum", "spectrum_from_values"),
    "symmetry": ("orthogonal_from_generator", "rotate_coords"),
}.items() for name in names}

__all__ = sorted(_OWNERS)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _OWNERS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
