"""One-shot federated learning simulator.

Clients train small numpy networks on local shards, attach a curvature
(Fisher information) payload to their weights, and a server merges everything
into one global model in a single round: either a plain weighted average, a
coordinatewise curvature-weighted average, or first-order iterations on the
curvature-weighted least-squares objective. Codecs for quantized and low-rank
payloads keep the uplink within a fixed bit budget, and a CLI reproduces the
width/local-steps sweeps and the heterogeneous classification benchmarks.

Modules: ``numerics`` (power iteration, Kronecker matvec),
``datasets`` (synthetic tasks, Dirichlet partitioning, IDX/CSV ingestion),
``models`` (two-layer relu nets, MLPs, SGD), ``fisher`` (curvature
payloads), ``aggregate`` (server merging), ``compress`` (codecs and bit
accounting), ``cli`` (the client round, whose one uplink per client is
charged ``compress.bit_cost`` of what the server receives, and the
experiment runners built on it; every runner honours ``compress``).
"""

from . import aggregate, cli, compress, datasets, fisher, models, numerics

__all__ = [
    "aggregate",
    "cli",
    "compress",
    "datasets",
    "fisher",
    "models",
    "numerics",
]

__version__ = "0.1.0"
