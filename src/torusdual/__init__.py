"""Langlands-dual root data, Weyl actions on tori, and the rational
K-theory, spectral, and line-bundle checks that quantify the duality.

The library is organized in layers:

- :mod:`torusdual.intlinalg`: exact lattice algebra on checked int64
  arrays (Smith normal form, cokernel torsion, solving modulo lattices)
  and the one breadth-first closure, of roots and of Weyl groups;
- :mod:`torusdual.rootdata`: root data of the simple compact types and
  their isogeny forms, dualization, pi_1 / center / connection index;
- :mod:`torusdual.weyl`: Weyl groups as exact integer matrix groups;
- :mod:`torusdual.fixedpoints`: fixed subtori of lattice automorphisms;
- :mod:`torusdual.ktheory`: rational equivariant K-ranks by the
  delocalized fixed-point formula, duality and affine comparisons;
- :mod:`torusdual.clifford`: exact Clifford-algebra spinor identities;
- :mod:`torusdual.oscillator`: discretized spectrum of the duality
  operator;
- :mod:`torusdual.poincare`: line-bundle pairing property checks;
- :mod:`torusdual.cli`: the `torusdual` command.
"""

from .intlinalg import (
    FiniteAbelianGroup,
    InfiniteSolutionSetError,
    SmithDecomposition,
    cokernel,
    smith_normal_form,
    solve_mod_lattice,
)
from .rootdata import (
    RootDatum,
    build_simple,
    center,
    connection_index,
    dualize,
    fundamental_group,
)
from .weyl import GroupTooLargeError, WeylGroup, generate
from .fixedpoints import FixedSetReport, fixed_set, fixed_sets, full_fixed_points
from .ktheory import (
    AffineComparisonReport,
    DualityReport,
    GradedRank,
    NonIntegralInvariantError,
    affine_comparison,
    commuting_pairs_rank,
    rational_equivariant_k,
    verify_duality,
)
from .clifford import (
    CliffordElement,
    clifford_projection,
    conjugation_by_u,
    symmetric_invariance_check,
)
from .oscillator import OscillatorDiscretization, SpectralReport, build_q0, spectral_check
from .poincare import CompactBump, equivariance_check, pairing, section_transform

__version__ = "0.1.0"

__all__ = [
    "FiniteAbelianGroup",
    "InfiniteSolutionSetError",
    "SmithDecomposition",
    "cokernel",
    "smith_normal_form",
    "solve_mod_lattice",
    "RootDatum",
    "build_simple",
    "center",
    "connection_index",
    "dualize",
    "fundamental_group",
    "GroupTooLargeError",
    "WeylGroup",
    "generate",
    "FixedSetReport",
    "fixed_set",
    "fixed_sets",
    "full_fixed_points",
    "AffineComparisonReport",
    "DualityReport",
    "GradedRank",
    "NonIntegralInvariantError",
    "affine_comparison",
    "commuting_pairs_rank",
    "rational_equivariant_k",
    "verify_duality",
    "CliffordElement",
    "clifford_projection",
    "conjugation_by_u",
    "symmetric_invariance_check",
    "OscillatorDiscretization",
    "SpectralReport",
    "build_q0",
    "spectral_check",
    "CompactBump",
    "equivariance_check",
    "pairing",
    "section_transform",
]
