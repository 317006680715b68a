"""Combinatorial model of the completed discrete cluster category of type A-infinity.

Arcs on a circle with n accumulation points model the indecomposables; limit
generators correspond to extended admissible dissections of the marked disc,
whose piano quivers present the graded endomorphism algebras; a signed
diagonal matrix turns the block picture of morphisms into an algebra map.
"""

from .geometry import (
    Arc,
    ArcKind,
    ArcSet,
    BoundaryPoint,
    acc,
    arc_set,
    cross,
    cyclic_less,
    pt,
    suspend,
)
from .homs import (
    Direction,
    HomDegreeTable,
    cone_presentation,
    ext1_dim,
    extension_triangles,
    factors_through,
    hom_dim,
    morphism_direction,
)
from .generators import (
    check_linear_generator,
    decompose,
    enumerate_limit_generators,
    fan_generator,
    fan_summands,
    is_homologically_connected,
    is_limit_generator,
    is_limit_pre_generator,
)
from .dissections import (
    ChordArc,
    DissectionSet,
    dissection_from_generator,
    generator_from_dissection,
    induced_admissible,
    is_admissible_dissection,
    is_extended_admissible,
)
from .quivers import (
    GentleQuiver,
    KeyboardQuiver,
    PianoQuiver,
    graded_dim,
    keyboard_from_extended,
    normal_form,
    piano_from_extended,
)
from .endo import EndoAlgebra, GradedEntry, RingKind, chi_multiply, verify_path_algebra_iso
from .signs import (
    SignedMatrix,
    both_signed_matrices,
    check_beta_delta,
    signed_matrix,
    verify_phi_homomorphism,
)

__all__ = [name for name in dir() if not name.startswith("_")]
