"""repro — a full reproduction of the fine-grain hypergraph model for 2D
sparse-matrix decomposition (Çatalyürek & Aykanat, IPPS 2001).

Quickstart::

    import scipy.sparse as sp
    from repro import decompose, simulate_spmv

    a = sp.random(1000, 1000, density=0.01, format="csr", random_state=0)
    res = decompose(a, k=16, method="finegrain", seed=0, n_starts=4)
    result = simulate_spmv(res.decomposition)
    print(res.summary())
    print(result.stats.summary())
    assert result.stats.total_volume == res.cutsize   # the paper's theorem

Packages:

* :mod:`repro.core` — the fine-grain model, decompositions, decode rule;
* :mod:`repro.models` — 1D hypergraph baselines, standard graph model,
  generic reduction problems;
* :mod:`repro.partitioner` — multilevel hypergraph partitioner (PaToH
  analogue);
* :mod:`repro.graph` — graph substrate + multilevel graph partitioner
  (MeTiS analogue);
* :mod:`repro.hypergraph` — hypergraph substrate and partition metrics;
* :mod:`repro.spmv` — exact communication simulator for parallel SpMV;
* :mod:`repro.matrix` — sparse-matrix toolkit and the synthetic test-matrix
  collection;
* :mod:`repro.bench` — the Table 1 / Table 2 experiment harness.
"""

from repro.core import (
    Decomposition,
    DecomposeResult,
    FineGrainModel,
    build_finegrain_model,
    decompose,
    decompose_1d_columnnet,
    decompose_1d_graph,
    decompose_1d_rownet,
    decompose_2d_finegrain,
    decompose_2d_rectangular,
    decomposition_from_finegrain,
    decomposition_from_row_partition,
)
from repro.errors import ReproFormatError
from repro.exact import ExactResult, exact_bisection
from repro.fingerprint import fingerprint
from repro.hypergraph import Hypergraph, Partition
from repro.partitioner import (
    ExecutionPolicy,
    ModelConfig,
    PartitionerConfig,
    PartitionResult,
    StartStat,
    partition_hypergraph,
    partition_multistart,
)
from repro.graph import Graph, partition_graph
from repro.spmv import CommStats, communication_stats, simulate_spmv

__version__ = "1.0.0"

__all__ = [
    "Decomposition",
    "DecomposeResult",
    "FineGrainModel",
    "build_finegrain_model",
    "decompose",
    "decompose_1d_columnnet",
    "decompose_1d_graph",
    "decompose_1d_rownet",
    "decompose_2d_finegrain",
    "decompose_2d_rectangular",
    "decomposition_from_finegrain",
    "decomposition_from_row_partition",
    "Hypergraph",
    "Partition",
    "ExactResult",
    "exact_bisection",
    "ReproFormatError",
    "fingerprint",
    "ExecutionPolicy",
    "ModelConfig",
    "PartitionerConfig",
    "PartitionResult",
    "StartStat",
    "partition_hypergraph",
    "partition_multistart",
    "Graph",
    "partition_graph",
    "CommStats",
    "communication_stats",
    "simulate_spmv",
    "__version__",
]
