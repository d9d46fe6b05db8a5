"""Definition of the paper's architecture design space (Table 2).

The full space crosses

* pipeline depth / frequency: (5 stages, 600 MHz), (7, 800 MHz), (9, 1 GHz),
* processor width: 1, 2, 3, 4,
* L2 size: 128 KB, 256 KB, 512 KB, 1 MB, with 8- or 16-way associativity,
* branch predictor: 1 KB global history or 3.5 KB hybrid,

for 3 x 4 x 8 x 2 = 192 design points, all sharing 32 KB 4-way L1 caches.
Both factories return a :class:`~repro.search.space.SearchSpace`: point
``i`` is ``space.spec(i)``, depth/frequency most significant and the
predictor least, named like ``w2_d7_f800_l2-256k-8w_global_1kb``.
"""

from __future__ import annotations

from repro.api.spec import MachineSpec
from repro.machine import MachineConfig
from repro.search.space import SearchSpace

#: (pipeline stages, frequency in MHz) pairs explored by the paper.
DEPTH_FREQUENCY_POINTS: tuple[tuple[int, int], ...] = (
    (5, 600),
    (7, 800),
    (9, 1000),
)

WIDTHS: tuple[int, ...] = (1, 2, 3, 4)

L2_SIZES: tuple[int, ...] = (128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024)

L2_ASSOCIATIVITIES: tuple[int, ...] = (8, 16)

BRANCH_PREDICTORS: tuple[str, ...] = ("global_1kb", "hybrid_3.5kb")


def _table2_space(depth_frequency, widths, l2_sizes, l2_associativities,
                  branch_predictors) -> SearchSpace:
    return SearchSpace.make(
        [
            {"axis": "pipeline_stages,frequency_mhz",
             "values": list(depth_frequency)},
            {"axis": "width", "values": list(widths)},
            {"axis": "l2_size", "values": list(l2_sizes)},
            {"axis": "l2_associativity", "values": list(l2_associativities)},
            {"axis": "branch_predictor", "values": list(branch_predictors)},
        ],
        base=MachineSpec.from_machine(MachineConfig()),
        name_template=("w{width}_d{pipeline_stages}_f{frequency_mhz}"
                       "_l2-{l2_size_kb}k-{l2_associativity}w"
                       "_{branch_predictor}"),
    )


def default_design_space() -> SearchSpace:
    """The paper's full 192-point design space."""
    return _table2_space(DEPTH_FREQUENCY_POINTS, WIDTHS, L2_SIZES,
                         L2_ASSOCIATIVITIES, BRANCH_PREDICTORS)


def reduced_design_space() -> SearchSpace:
    """A 24-point subsample used where detailed simulation of all 192 points
    would be too slow (e.g. the default benchmark harness settings).

    The subsample keeps the extremes and the default of every dimension, so
    error statistics computed on it are representative of the full space.
    """
    return _table2_space(((5, 600), (9, 1000)), (1, 2, 4),
                         (128 * 1024, 512 * 1024), (8,), BRANCH_PREDICTORS)
