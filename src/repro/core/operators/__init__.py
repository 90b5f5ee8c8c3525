"""Dataflow operators over rows of patches (Sections 2.2 and 5)."""

from repro.core.operators.aggregates import (
    Distinct,
    DistinctCount,
    GroupBy,
    UnionFind,
    cluster_pairs,
)
from repro.core.operators.base import (
    DEFAULT_BATCH_SIZE,
    Batch,
    Operator,
    as_rows,
    chunked,
    slice_batches,
)
from repro.core.operators.joins import (
    BallTreeSimilarityJoin,
    IndexEqJoin,
    NestedLoopJoin,
    SwapSides,
)
from repro.core.operators.profiled import (
    InputProbe,
    ProfiledOperator,
)
from repro.core.operators.scans import (
    AllIds,
    AnnProbe,
    AnnTopKExact,
    Fetch,
    IdSource,
    IndexLookup,
    IndexRange,
    IteratorScan,
    Limit,
    MapPatches,
    MetadataScan,
    OrderBy,
    Project,
    Select,
)

__all__ = [
    "AllIds",
    "AnnProbe",
    "AnnTopKExact",
    "BallTreeSimilarityJoin",
    "Batch",
    "DEFAULT_BATCH_SIZE",
    "Distinct",
    "DistinctCount",
    "Fetch",
    "GroupBy",
    "IdSource",
    "IndexEqJoin",
    "IndexLookup",
    "IndexRange",
    "InputProbe",
    "IteratorScan",
    "Limit",
    "MapPatches",
    "MetadataScan",
    "NestedLoopJoin",
    "Operator",
    "OrderBy",
    "ProfiledOperator",
    "Project",
    "Select",
    "SwapSides",
    "UnionFind",
    "as_rows",
    "chunked",
    "cluster_pairs",
    "slice_batches",
]
