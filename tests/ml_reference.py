"""Maximum-likelihood decoding of a classical code by direct enumeration.

Two references for the library's Ising form (``cpc.decoding.ising_problem``):
:func:`ising_ground_state` enumerates the spin Hamiltonian's configurations,
and :func:`ml_decode_exhaustive` finds the same most likely error set by
scoring every bit-error pattern instead of a spin Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cpc.decoding import IsingProblem, _check_entries, _check_priors
from cpc.model import ClassicalCode


@dataclass(frozen=True)
class MlDecodeResult:
    """``check_errors`` holds check indices, as :func:`infer_check_errors` reports them."""

    bit_errors: frozenset[int]
    check_errors: frozenset[int]
    log_likelihood: float


def _disagreeing_checks(member_masks, syndrome, pattern: int) -> list[int]:
    """Positions of the checks whose parity over bit mask ``pattern`` is not their syndrome bit."""
    return [
        i
        for i, (mask, m) in enumerate(zip(member_masks, syndrome))
        if (pattern & mask).bit_count() & 1 != m
    ]


def _member_masks(cc: ClassicalCode) -> list[int]:
    return [sum(1 << b for b in members) for members in cc.checks]


def infer_check_errors(cc: ClassicalCode, syndrome, bit_errors) -> frozenset[int]:
    """Indices of the checks whose measured parity disagrees with the inferred bit errors.

    ``bit_errors`` must index bits of the code.
    """
    syndrome = _check_entries(syndrome, len(cc.checks), "syndrome", "syndrome bits")
    flipped = set(bit_errors)
    outside = [b for b in flipped if not 0 <= b < cc.bit_count]
    if outside:
        raise ValueError(f"bit error {min(outside)} outside 0..{cc.bit_count - 1}")
    pattern = sum(1 << b for b in flipped)
    return frozenset(_disagreeing_checks(_member_masks(cc), syndrome, pattern))


def ising_ground_state(problem: IsingProblem) -> frozenset[int]:
    """The spins set to -1 (the errored bits) in ``problem``'s ground state.

    Scores every configuration in one array, bit i of a pattern being spin i's
    flip.  Every configuration within 1e-12 of the lowest energy ties, and a
    tie breaks to the smallest sorted error set, as in
    :func:`ml_decode_exhaustive`.
    """
    n = len(problem.fields)
    patterns = np.arange(1 << n)
    spins = 1 - 2 * ((patterns[:, None] >> np.arange(n)) & 1)
    energy = spins @ np.array(problem.fields, dtype=float)
    for term in problem.terms:
        energy += term.coefficient * spins[:, list(term.spins)].prod(axis=1)
    ties = np.flatnonzero(energy <= energy.min() + 1e-12)
    return frozenset(min(tuple(i for i in range(n) if p >> i & 1) for p in ties))


def ml_decode_exhaustive(
    cc: ClassicalCode,
    syndrome,
    bit_priors,
    check_priors,
) -> MlDecodeResult:
    """Most likely error set explaining the syndrome, by direct enumeration.

    Maximizes ``sum log(p/(1-p))`` over bit and check errors subject to the
    measured parities; the check errors are determined by the bit choices, so
    the search space is the 2^bit_count bit-error patterns, scored in one
    array.  Every pattern within 1e-12 of the best score ties, and a tie
    breaks to the lexicographically smallest bit-error set.
    """
    bit_priors = _check_priors(bit_priors, cc.bit_count, "bit_priors")
    check_priors = _check_priors(check_priors, len(cc.checks), "check_priors")
    syndrome = _check_entries(syndrome, len(cc.checks), "syndrome", "syndrome bits")
    n = cc.bit_count
    if n > 24:
        raise ValueError(f"instance too large for exhaustive search: {n} bits")
    weights = [math.log(p / (1.0 - p)) for p in (*bit_priors, *check_priors)]
    patterns = np.arange(1 << n)
    bits = (patterns[:, None] >> np.arange(n)) & 1
    # each check that disagrees with its syndrome bit over a pattern's bit errors
    disagree = [
        (bits[:, list(members)].sum(axis=1) & 1) != m
        for members, m in zip(cc.checks, syndrome)
    ]
    # summed bit by bit, then check by check, as one pattern's score is summed
    score = np.zeros(patterns.size)
    for errs, weight in zip([*bits.T.astype(bool), *disagree], weights):
        score += np.where(errs, weight, 0.0)
    ties = np.flatnonzero(score >= score.max() - 1e-12).tolist()
    best = min(ties, key=lambda p: tuple(i for i in range(n) if p >> i & 1))
    errors = tuple(i for i in range(n) if best >> i & 1)
    return MlDecodeResult(
        bit_errors=frozenset(errors),
        check_errors=infer_check_errors(cc, syndrome, errors),
        log_likelihood=float(score[best]),
    )
