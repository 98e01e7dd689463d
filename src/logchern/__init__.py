"""Exact logarithmic Chern characters of Schur functors, with verification.

The package computes Chern characters and discriminant classes of Schur
functors of vector bundles two independent ways -- closed formulas and a
splitting-principle brute-force oracle -- entirely in exact rational
arithmetic, and cross-checks one against the other.
"""

from logchern.characters import (
    adams,
    base_bundle,
    chern_classes,
    d_k,
    delta4t,
    delta_k,
    discriminants,
    from_chern_classes,
    generic_bundle,
    log_character,
    modified_delta,
    normal_form,
)
from logchern.formulas import (
    closed_ch,
    delta2_dot,
    delta3_dot,
    ext_power_ch3,
    f4_sym,
    hc_shift_check,
    schur_ch3,
    sym_power_ch,
)
from logchern.mukai import MukaiVector, is_primitive, mukai_schur
from logchern.oracle import oracle_schur_ch, schur_of
from logchern.report import (
    sweep,
    verify_delta4_proportionality,
    verify_nonproportional_hook,
    verify_schur,
)
from logchern.ring import GradedPoly, PolyRing, proportion
from logchern.symfunc import (
    Partition,
    enumerate_partitions,
    stirling2,
    weyl_dim,
)

__all__ = [
    "GradedPoly",
    "MukaiVector",
    "Partition",
    "PolyRing",
    "adams",
    "base_bundle",
    "chern_classes",
    "closed_ch",
    "d_k",
    "delta2_dot",
    "delta3_dot",
    "delta4t",
    "delta_k",
    "discriminants",
    "enumerate_partitions",
    "ext_power_ch3",
    "f4_sym",
    "from_chern_classes",
    "generic_bundle",
    "hc_shift_check",
    "is_primitive",
    "log_character",
    "modified_delta",
    "mukai_schur",
    "normal_form",
    "oracle_schur_ch",
    "proportion",
    "schur_ch3",
    "schur_of",
    "stirling2",
    "sym_power_ch",
    "sweep",
    "verify_delta4_proportionality",
    "verify_nonproportional_hook",
    "verify_schur",
    "weyl_dim",
]
