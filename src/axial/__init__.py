"""Exact-arithmetic toolkit for axial algebras given by structure constants:
axis/fusion-law verification, cocycle spaces, one-dimensional central
extensions and their classification, invariant bilinear forms, Miyamoto
groups, and a catalog of benchmark algebras."""

from .algebra import Algebra, BilinearForm, Cocycle, radical_axial
from .catalog import CatalogEntry, build, default_params, list_catalog
from .errors import (AxialError, CatalogError, DimensionMismatchError,
                     ExtensionError, FieldMismatchError, NotIdempotentError,
                     NotSemisimpleError, ScalarParseError)
from .extension import (CocycleSpace, ExtensionReport, aut_action, build_extension,
                        coboundary, coboundary_space, cocycle_space,
                        decompose_by_annihilator, extension_axiality, is_split,
                        normalize_on_axes)
from .fusion import (C2Grading, FusionLaw, find_c2_gradings, grading_is_valid,
                     jordan_half_law, law_contains, monster_law)
from .linalg import Matrix, RowReducer, Subspace
from .miyamoto import (AutMatrix, axis_closure, find_flip, group_closure,
                       is_automorphism, tau_automorphism)
from .scalars import FieldTag, Scalar, parse_scalar, render_scalar
from .spectral import (AxialCertificate, AxisReport, check_axial_algebra,
                       check_axis, eigen_decompose, minimal_law)

__version__ = "1.0.0"

__all__ = [
    "Algebra", "BilinearForm", "radical_axial",
    "CatalogEntry", "build", "default_params", "list_catalog",
    "AxialError", "CatalogError", "DimensionMismatchError", "ExtensionError",
    "FieldMismatchError", "NotIdempotentError", "NotSemisimpleError",
    "ScalarParseError",
    "Cocycle", "CocycleSpace", "ExtensionReport", "aut_action",
    "build_extension", "coboundary", "coboundary_space", "cocycle_space",
    "decompose_by_annihilator", "extension_axiality", "is_split",
    "normalize_on_axes",
    "C2Grading", "FusionLaw", "find_c2_gradings",
    "grading_is_valid", "jordan_half_law", "law_contains", "monster_law",
    "Matrix", "RowReducer", "Subspace",
    "AutMatrix", "axis_closure", "find_flip", "group_closure",
    "is_automorphism", "tau_automorphism",
    "FieldTag", "Scalar", "parse_scalar", "render_scalar",
    "AxialCertificate", "AxisReport", "check_axial_algebra", "check_axis",
    "eigen_decompose", "minimal_law",
    "__version__",
]
