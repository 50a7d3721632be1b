"""Coherent parity check (CPC) quantum error correction toolkit.

Small binary-matrix code definitions, stabilizer derivations, syndrome
decoding, encoded-gate rewrites, and desk-scale Monte Carlo fidelity
simulation.
"""

__version__ = "0.1.0"
