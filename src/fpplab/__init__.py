"""fpplab: a simulation laboratory for first- and last-passage percolation."""

__version__ = "0.1.0"

from .lattice import Box, EdgeId, Region, Site, Torus, ball, enumerate_edges, point_window
from .weights import (
    Bernoulli,
    DistributionSpec,
    Exponential,
    Geometric,
    TableCDF,
    Uniform,
    WeightField,
    parse_spec,
    sample_field,
)
from .fpp import (
    AveragedPassage,
    PassageResult,
    averaged_passage,
    passage_time,
    single_edge_update,
    torus_passage,
)
from .lpp import LppGrid, last_passage, last_passage_value, rescaled_statistic, sample_grid

__all__ = [
    "Box",
    "EdgeId",
    "Region",
    "Site",
    "Torus",
    "ball",
    "enumerate_edges",
    "point_window",
    "Bernoulli",
    "DistributionSpec",
    "Exponential",
    "Geometric",
    "TableCDF",
    "Uniform",
    "WeightField",
    "parse_spec",
    "sample_field",
    "AveragedPassage",
    "PassageResult",
    "averaged_passage",
    "passage_time",
    "single_edge_update",
    "torus_passage",
    "LppGrid",
    "last_passage",
    "last_passage_value",
    "rescaled_statistic",
    "sample_grid",
]
