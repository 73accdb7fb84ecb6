"""Exact symbolic engine for the correspondence between Lie algebroid
structures with 1-cocycles on a bundle and linear Jacobi structures on
the dual bundle."""

from .chart import Chart, ChartError
from .ring import ChartMismatchError, EvalError, ExpPoly, Rat
from .exterior import (DiffForm, GradeError, Multivector,
                       check_nondegenerate, exterior_d, interior,
                       lie_derivative, pairing, sharp, sn_bracket)
from .report import Check, Report
from .algebroid import (AlgebroidError, AlgebroidPatch, Cocycle, Section,
                        anchor_apply, bracket_sections, cotangent_algebroid,
                        jacobi_algebroid, verify_algebroid, verify_cocycle)
from .jacobi import (ContactError, JacobiStructure, check_C1, check_C2,
                     contact_to_jacobi, jacobi_bracket, verify_jacobi)
from .correspondence import (AlgebroidWithCocycle, C1Violation, C2Violation,
                             LinearityViolation, forward_report,
                             hat_algebroid, linear_poisson_dual, liouville,
                             poissonization, psi_forward, psi_inverse,
                             roundtrip_check, vertical_lift)
from .gallery import (CATALOG, GalleryCase, GalleryError, build_case,
                      complete_vertical_lift, run_case)
from .specfile import (SpecError, SpecFile, parse_expression, parse_spec,
                       render_spec, spec_from_algebroid, spec_from_jacobi)

__version__ = "0.1.0"

__all__ = [
    "AlgebroidError", "AlgebroidPatch", "AlgebroidWithCocycle", "CATALOG",
    "C1Violation", "C2Violation", "Chart", "ChartError", "ChartMismatchError",
    "Check", "Cocycle", "ContactError", "DiffForm", "EvalError", "ExpPoly",
    "GalleryCase", "GalleryError", "GradeError", "JacobiStructure",
    "LinearityViolation", "Multivector", "Rat", "Report", "Section",
    "SpecError", "SpecFile", "anchor_apply", "bracket_sections", "build_case",
    "check_C1", "check_C2", "check_nondegenerate", "complete_vertical_lift",
    "contact_to_jacobi", "cotangent_algebroid", "exterior_d", "forward_report",
    "hat_algebroid", "interior", "jacobi_algebroid", "jacobi_bracket",
    "lie_derivative", "linear_poisson_dual", "liouville", "pairing",
    "parse_expression", "parse_spec", "poissonization", "psi_forward",
    "psi_inverse", "render_spec", "roundtrip_check", "run_case", "sharp",
    "sn_bracket", "spec_from_algebroid", "spec_from_jacobi",
    "verify_algebroid", "verify_cocycle", "verify_jacobi", "vertical_lift",
]
