"""Exact computation with permutation ideals in preprojective algebras of
type A and their continuous, permuton-indexed analogues."""

from .continuous import (
    ideal_leq,
    left_act,
    staircase,
    tau_rigidity_cert,
)
from .finite import (
    CurveModule,
    DiamondCurve,
    Kind,
    factors,
    hom_dims,
    ideal_of,
    ideal_via_word,
    is_tau_rigid_ideal,
    is_zero,
    projective,
    strip,
    tau_sub,
    top_removable,
)
from .permuton import (
    GridPermuton,
    boundary_function,
    from_perm,
    permuton_bruhat_leq,
    uniform,
)
from .plfunc import (
    BFunc,
    MonotoneClass,
    PLFunc,
    is_lipschitz1,
    pointwise_leq,
    pointwise_min,
    to_bfunc,
    vshift,
)
from .sheets import (
    SawtoothDesc,
    Sheet,
    SimpleModule,
    b_interval,
    codependence_class,
    decorous_cover,
    elementary_exists,
    in_range_of_codependence,
    is_brick,
    is_deep,
    is_sawtooth,
)
from .symgroup import (
    Perm,
    all_reduced_words,
    bruhat_leq,
    canonical_reduced_word_of_rep,
    is_reduced,
)

__all__ = [name for name in dir() if not name.startswith("_")]
