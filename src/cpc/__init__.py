"""Coherent parity check (CPC) quantum error correction toolkit.

Small binary-matrix code definitions, stabilizer derivations, syndrome
decoding, encoded-gate rewrites, and desk-scale Monte Carlo fidelity
simulation.
"""

from .gf2 import Gf2Matrix, multiply, row_space_equal, rref
from .model import (
    ClassicalCode,
    CpcCode,
    CpcFormatError,
    GeneralCpcCode,
    InvalidCodeError,
    from_classical,
    generalize,
    parse,
    serialize,
)
from .circuits import (
    Circuit,
    Gate,
    PauliString,
    circuit_to_text,
    circuits_equal,
    conjugate_pauli,
    decode_circuit,
    encode_circuit,
)
from .propagation import (
    cross_propagation,
    effective_codes,
    general_propagation,
    general_to_classical,
)
from .stabilizers import (
    CssConversionError,
    CssToCpcResult,
    check_matrix,
    css_to_cpc,
    logical_operators,
    stabilizers,
    symplectic_matrix,
)
from .decoding import (
    CorrectabilityReport,
    DecodeTable,
    DecodingObstruction,
    IsingProblem,
    augment_for_cnot,
    cnot_compatible,
    code_distance,
    decode_table,
    error_table,
    is_single_error_correcting,
    ising_problem,
    solve_ising,
)
from .faults import ErrorModel
from .logical_ops import (
    PauliFrame,
    logical_cnot_circuit,
    logical_hadamard_circuit,
    logical_pauli_frame,
)
from .dynamics import (
    CoherentFidelity,
    HalfLifeFit,
    SimConfig,
    SimResult,
    coherent_fidelity_631,
    fit_half_life,
    simulate,
)
from .search import SearchResult, random_code, search

__version__ = "0.1.0"
