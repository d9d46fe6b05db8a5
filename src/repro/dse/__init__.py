"""The paper's Table-2 design space (Figures 5 and 9 sweep it)."""

from repro.dse.space import (
    BRANCH_PREDICTORS,
    DEPTH_FREQUENCY_POINTS,
    L2_ASSOCIATIVITIES,
    L2_SIZES,
    WIDTHS,
    default_design_space,
    reduced_design_space,
)

__all__ = [
    "BRANCH_PREDICTORS",
    "DEPTH_FREQUENCY_POINTS",
    "L2_ASSOCIATIVITIES",
    "L2_SIZES",
    "WIDTHS",
    "default_design_space",
    "reduced_design_space",
]
