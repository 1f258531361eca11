"""Multi-programming compiler for noisy quantum devices.

Partitions a device into reliable, crosstalk-aware regions, allocates several
small circuits to them, routes each with SWAP/bridged-CNOT insertion, and
emits one merged hardware-compliant program plus metrics.

The package root exports the pipeline and the building blocks the demos use;
everything else lives in its submodule.  The equivalence checker is not
exported: only ``qmpc.verify`` loads the simulator, and compiling never does.
"""

from .circuits import build_dag, emit_qasm, parse_qasm
from .hardware import (
    build_crosstalk,
    build_hardware,
    distance_matrices,
    extract_strong_crosstalk,
    hop_count_matrix,
    subgraph_diameter,
)
from .config import RunConfig
from .pipeline import compile_workloads

__version__ = "0.1.0"
