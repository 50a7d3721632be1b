"""Code-cycle simulation under stochastic and coherent error models.

The stochastic model follows the cycle protocol exactly: encode, sample
independent X/Z Pauli errors mid-window, decode, read the checks, apply the
decode-table correction, reset, repeat.  Because every gate is Clifford and
every error is a Pauli, a cycle maps the product state (data) x (reference
checks) to another such product state with deterministic check outcomes, so
the default backend tracks the accumulated data-register Pauli frame and is
exactly equivalent to the full statevector evolution (the ``statevector``
backend, kept as the cross-checking oracle).  The oracle carries only the data
states of a trial's probes (|0..0>, |+..+> and the Haar states) between
cycles, as one stack.  Each cycle runs them through the full register with
every check turned to read in Z, and the syndrome is the one block of data
amplitudes that holds every probe's weight; nothing is sampled.  The engine's
gates act on the last axis, so one call maps a single state or a stack, and
:func:`apply_pauli_masks` is the one place where a Pauli meets a state.
Coherent errors are not a ``simulate`` model: :func:`coherent_fidelity_631`
treats a coherent rotation exactly, on the same small statevector engine, and
reads its syndrome blocks the same way.

Error-free cycles are the identity and are skipped by sampling the cycles on
which at least one error fires; the per-cycle error law is unchanged.

Both backends sample one fault table, :func:`cpc.faults.fault_table`, a block
of trials at a time; a trial's errors are (cycle, fault) pairs drawn from it.
Trial t draws its errors from the Philox stream of ``SeedSequence(seed,
spawn_key=(t, 0))`` and, only when Frand is asked for, its Haar states'
Gaussians from ``(t, 1)``; the keys of a block of trials come from one
vectorized kernel (:func:`cpc.search._philox_keys`), and each stream is one
generator whose Philox state is reset to the trial's key.  Cycle indices are
int32 in a run of fewer than 2**31 cycles and int64 from 2**31 on, through the
same code; the int32 draws are the int64 draws' values (see
:func:`_sample_error_events`).  The Pauli-frame backend is array code over a
block; the oracle runs its trials one by one.  A cycle's correction depends
only on its own syndrome, never on the frame, so a lone fault's net change
comes from the fault table, and the oracle calls
:meth:`cpc.decoding.DecodeTable.lookup` once per cycle.  A trial's events come
grouped by fault, so the frame at a sample time is the XOR of the net changes
of the faults that fired an odd number of times before it: one
``searchsorted`` of the block's events into the sample cycles and one
``bincount`` of (trial, fault, sample bin), with no sort by cycle.  Only
cycles where faults coincide, found by sorting each trial's cycles, are looked
up again, all of a block's in one call, and put their looked-up change in
place of their faults' own.  The table knows every lone fault's syndrome, so
only such a cycle can be uncorrectable.  The Haar states behind ``Frand`` are
normalised once per block, over the trials' stacked draws, and the frame
kernel's overlaps computed for every run of equal frames in a trial, all of a
block's in one :func:`apply_pauli_masks` call.  This is Stim's batched
Pauli-frame pattern (Gidney, arXiv:2103.02202), in numpy, across trials.
"""

from __future__ import annotations

import csv
import functools
import importlib.machinery
import importlib.util
import io
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, decode_circuit, encode_circuit, hadamard
from .decoding import decode_table
from .faults import ErrorModel, _require_finite, fault_table
from .gf2 import Gf2Matrix
from .model import CpcCode, GeneralCpcCode
from .search import _philox_keys

__all__ = [
    "METRICS",
    "SimConfig",
    "SimResult",
    "simulate",
    "HalfLifeFit",
    "fit_half_life",
    "CoherentFidelity",
    "coherent_fidelity_631",
    "apply_gate",
    "apply_circuit",
    "apply_pauli_masks",
]


# --- small dense statevector engine -----------------------------------------
#
# Little-endian convention: basis index i assigns qubit q the bit (i >> q) & 1.


def zero_state(n: int) -> np.ndarray:
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    return state


def _parity(values: np.ndarray) -> np.ndarray:
    v = values.copy()
    for shift in (16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


def apply_1q(state: np.ndarray, q: int, matrix: np.ndarray) -> np.ndarray:
    # index i = (high, bit q, low): the last axis as blocks of 2 * 2**q amplitudes
    pairs = state.reshape(state.shape[:-1] + (-1, 2, 1 << q))
    a, b = pairs[..., 0, :], pairs[..., 1, :]
    out = np.empty_like(pairs)
    out[..., 0, :] = matrix[0, 0] * a + matrix[0, 1] * b
    out[..., 1, :] = matrix[1, 0] * a + matrix[1, 1] * b
    return out.reshape(state.shape)


_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


def apply_gate(state: np.ndarray, gate) -> np.ndarray:
    """Apply one gate to a state or, along the last axis, a stack of states."""
    if gate.kind == "H":
        return apply_1q(state, gate.qubits[0], _H_MATRIX)
    a, b = gate.qubits
    idx = np.arange(state.shape[-1])
    if gate.kind == "CNOT":
        # np.take keeps a stack C-ordered; state[..., perm] returns it Fortran-ordered
        return np.take(state, idx ^ (((idx >> a) & 1) << b), axis=-1)
    if gate.kind == "CZ":
        return state * (1 - 2 * ((idx >> a) & (idx >> b) & 1))
    if gate.kind == "CCZX":
        for q in (a, b):
            state = apply_1q(state, q, _H_MATRIX)
        state = apply_gate(state, type(gate)("CZ", (a, b)))
        for q in (a, b):
            state = apply_1q(state, q, _H_MATRIX)
        return state
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def apply_circuit(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


def apply_pauli_masks(state: np.ndarray, x_mask, z_mask) -> np.ndarray:
    """Apply prod X^x Z^z (Z first, then X) to a state or a stack of states.

    The basis index runs along the last axis, so a ``(m, 2**n)`` array is m
    states, each mapped as a single one would be.  The masks are ints or
    integer arrays that broadcast over the stack's leading axes: ``(m,)``
    masks give each of m states its own Pauli.
    """
    idx = np.arange(state.shape[-1])
    x_mask, z_mask = np.asarray(x_mask)[..., None], np.asarray(z_mask)[..., None]
    signed = (1.0 - 2.0 * _parity(idx & z_mask)) * state
    # amplitude i of each state moves to i ^ x: one gather from the flattened stack
    rows = np.arange(signed.size // idx.size).reshape(signed.shape[:-1] + (1,))
    return np.take(signed, rows * idx.size + (idx ^ x_mask))


def _haar_states(parts: np.ndarray) -> np.ndarray:
    """Haar states from Gaussian draws shaped (..., 2, dim): each state's real
    then imaginary parts, as ``normal`` fills them when a trial draws its
    states one after another.  Each row keeps its own norm, computed as
    ``np.linalg.norm`` computes it (a batched norm sums in another order).
    That norm is ``re.dot(re) + im.dot(im)`` on the strided views; stacked
    (1 x dim) @ (dim x 1) matmuls run that same dot on every row, in one call
    per part however many leading axes (trials, states) the draws have."""
    vecs = parts[..., 0, :] + 1j * parts[..., 1, :]
    re, im = vecs.real[..., None, :], vecs.imag[..., None, :]
    norms = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))
    return vecs / norms[..., 0]


# --- stochastic cycle simulation ---------------------------------------------


# The fidelity metrics simulate can report, in the order of SimResult's CSV columns.
METRICS = ("F0", "Fplus", "Frand")


@dataclass(frozen=True)
class SimConfig:
    cycle_rate: float
    t_max: float
    trials: int
    haar_states: int = 20
    rng_seed: int = 0
    samples: int = 40
    metrics: tuple[str, ...] = METRICS

    def __post_init__(self):
        _require_finite("cycle_rate", self.cycle_rate)
        _require_finite("t_max", self.t_max)
        if self.cycle_rate <= 0:
            raise ValueError("cycle_rate must be positive")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.t_max * self.cycle_rate >= 2**63:
            # numpy draws the per-trial event count from a 64-bit cycle count
            raise ValueError("t_max * cycle_rate must be below 2**63 cycles")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if not self.metrics:
            raise ValueError(f"metrics must name at least one of {', '.join(METRICS)}")
        for m in self.metrics:
            if m not in METRICS:
                raise ValueError(f"unknown metric {m!r}")
        if "Frand" in self.metrics and self.haar_states < 1:
            raise ValueError("haar_states must be at least 1 when Frand is requested")


@dataclass
class SimResult:
    times: np.ndarray
    means: dict[str, np.ndarray]
    errors: dict[str, np.ndarray]
    uncorrectable_cycles: int
    trials: int

    def to_csv(self) -> str:
        """The curves as CSV text: time, then mean and error of each metric
        simulated, in :data:`METRICS` order.
        """
        metrics = [m for m in METRICS if m in self.means]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["time_s"] + [c for m in metrics for c in (m, f"{m}_err")])
        for i, t in enumerate(self.times):
            row = [f"{t:.6g}"]
            for metric in metrics:
                row += [f"{self.means[metric][i]:.8g}", f"{self.errors[metric][i]:.8g}"]
            writer.writerow(row)
        return buf.getvalue()


def _reset(rng: np.random.Generator, key) -> np.random.Generator:
    """``rng`` with its Philox at counter 0 under ``key`` and its buffers empty:
    the state in which a new ``Philox(SeedSequence(seed, spawn_key=(trial,
    stream)))`` starts when ``key`` is that stream's key."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array; np.unique would sort it again."""
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


class _Size(int):
    """A draw size that is its own ``np.prod``, answered in numpy's C dispatch:
    ``Generator.integers`` takes the product only to test for an empty draw,
    which on a plain int builds an array.  Any other numpy function given a
    ``_Size`` raises ``TypeError``."""

    def __array_function__(self, func, types, args, kwargs):
        return self if func is np.prod else NotImplemented


def _cycle_dtype(n_cycles: int) -> type:
    """The dtype of cycle indices in a run of ``n_cycles`` cycles: a sample
    cycle can equal ``n_cycles``, so int32 holds them only below 2**31."""
    return np.int32 if n_cycles < 2**31 else np.int64


def _sample_error_events(
    rng: np.random.Generator, probs: np.ndarray, n_cycles: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cycle and fault index of every sampled error.

    Fault f fires in each cycle independently with probability ``probs[f]``;
    sampling the binomial count and then a uniform subset of cycles per fault
    reproduces that law exactly.  The subset is the set of distinct values of
    repeated uniform draws, each round drawing as many values as are still
    missing; the draws are the seeded contract, so their order and sizes must
    not change.  Each size is passed as a ``_Size``, whose ``np.prod`` numpy's
    dispatcher answers without building an array; the values and the generator
    state after them are those of a plain int size.

    The cycles come as ``_cycle_dtype(n_cycles)``: int32 below 2**31 cycles,
    else int64.  Under a bound below 2**32 numpy draws either dtype with the
    same 32-bit Lemire routine, so the values and the generator state after
    them are those of the default int64 draw; int32 halves the bytes that the
    sorts here and in ``_frame_block`` move.
    """
    dtype = _cycle_dtype(n_cycles)
    chosen: list[np.ndarray] = []
    faults: list[int] = []
    for fault, prob in enumerate(probs.tolist()):
        if prob <= 0.0:
            continue
        count = int(rng.binomial(n_cycles, prob))
        if not count:
            continue
        cycles = rng.integers(0, n_cycles, size=_Size(count), dtype=dtype)
        cycles.sort()
        if np.count_nonzero(cycles[1:] == cycles[:-1]):
            cycles = _distinct(cycles)
        while cycles.size < count:
            more = rng.integers(0, n_cycles, size=_Size(count - cycles.size), dtype=dtype)
            cycles = _distinct(np.sort(np.concatenate((cycles, more))))
        chosen.append(cycles)
        faults.append(fault)
    if not chosen:
        return np.zeros(0, dtype=dtype), np.zeros(0, dtype=np.int64)
    sizes = [c.size for c in chosen]
    return np.concatenate(chosen), np.repeat(np.array(faults, dtype=np.int64), sizes)


def _xor_by_keys(keys: tuple[np.ndarray, ...], rows: np.ndarray):
    """The distinct key tuples in ``np.lexsort`` order (the last key first), as
    one array per key, with the XOR of ``rows`` over each."""
    order = np.lexsort(keys)  # XOR commutes: the order within a key does not matter
    keys = [key[order] for key in keys]
    starts = np.flatnonzero(np.any([np.diff(key, prepend=-1) for key in keys], axis=0))
    xor = np.bitwise_xor.reduceat(np.take(rows, order, axis=0), starts, axis=0)
    return [key[starts] for key in keys], xor


# Trials per block of either backend, at most.  The frame kernel's largest arrays
# hold trials x (samples + 2) x max(faults, haar_states * 2**k) cells; a block is
# cut to _BLOCK_CELLS of them, but keeps at least one trial.
_TRIAL_BLOCK = 64
_BLOCK_CELLS = 1 << 20


def _frame_block(events, faults, sample_cycles):
    """The Pauli frames of a block of trials at the sample times, as a
    (trials, samples, 2) array of (x, z) masks, and the number of error cycles
    before the last sample time whose syndrome has no single-error explanation.

    ``events`` holds each trial's (cycles, faults) from ``_sample_error_events``:
    grouped by fault, each fault's cycles increasing.  So the frame at sample s
    is the XOR of ``faults.net[f]`` over the faults f that fired an odd number
    of times before ``sample_cycles[s]``, found by one ``searchsorted`` and one
    ``bincount``, with no sort by cycle.  A cycle where faults coincide is
    looked up again, and only it can be unknown: it toggles the correction of
    its XORed syndrome and its faults' own, which swaps their nets for its net
    change.  The block's coincident events are grouped by (trial, cycle) and
    XORed in one ``reduceat``; XOR is exact in any order, so the grouping moves
    no bit.  The cycles and ``sample_cycles`` share one dtype, int32 below
    2**31 cycles (``_cycle_dtype``), so the per-trial sorts, the
    concatenations and the ``searchsorted`` calls move half the bytes of
    int64.
    """
    n_trials, n_faults, n_bins = len(events), faults.net.shape[0], sample_cycles.size + 1
    moves = faults.net.any(axis=1)
    # toggles[t, b]: XOR of the net changes that enter trial t's frame at sample b
    # (b = n_bins - 1: after the last sample, never applied or counted)
    toggles = np.zeros((n_trials, n_bins, 2), dtype=np.int64)
    if moves.any():
        trial = np.repeat(np.arange(n_trials), [c.size for c, _ in events])
        cycles = np.concatenate([c for c, _ in events])
        rows = np.concatenate([f for _, f in events])
        keep = moves[rows]
        trial, rows = trial[keep], rows[keep]
        bins = np.searchsorted(sample_cycles, cycles[keep], side="right")
        counts = np.bincount(
            (trial * n_faults + rows) * n_bins + bins, minlength=n_trials * n_faults * n_bins
        ).reshape(n_trials, n_faults, n_bins)
        for f in np.flatnonzero(moves):
            toggles ^= (counts[:, f, :, None] & 1) * faults.net[f]
    # Cycles where faults coincide, found by sorting each trial's cycles alone;
    # the events on them are those whose cycle searchsorted finds among the repeats.
    hits = []
    for t, (cycles, rows) in enumerate(events):
        ordered = np.sort(cycles)
        repeats = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeats.size:
            hit = np.take(repeats, np.searchsorted(repeats, cycles), mode="clip") == cycles
            hits.append((t, cycles[hit], rows[hit]))
    unknown = 0
    if hits:
        trial, cycles, rows = zip(*hits)
        trial = np.repeat(trial, [c.size for c in cycles])
        # each (trial, cycle) gets the XOR of its faults' syndromes and own corrections
        (cycles, trial), xor = _xor_by_keys(
            (np.concatenate(cycles), trial), faults.decoded[np.concatenate(rows)]
        )
        correction, known = faults.table.lookup(xor[:, 0], xor[:, 1])
        bins = np.searchsorted(sample_cycles, cycles, side="right")
        np.bitwise_xor.at(toggles, (trial, bins), correction ^ xor[:, 2:])
        unknown = int(np.count_nonzero(~known & (bins < n_bins - 1)))
    return np.bitwise_xor.accumulate(toggles, axis=1)[:, :-1], unknown


def _frame_values(frames, haar, metrics) -> dict[str, np.ndarray]:
    """Metric values, (trials, samples) each, of a block's frames.

    ``frames`` is (trials, samples, 2), ``haar`` the trials' Haar states
    stacked as (trials, haar_states, 2**k).  Frand is evaluated once per run
    of equal frames in a trial, the block's runs in one ``apply_pauli_masks``.
    """
    values = {}
    if "F0" in metrics:
        values["F0"] = np.where(frames[..., 0] & 1, 0.0, 1.0)
    if "Fplus" in metrics:
        values["Fplus"] = np.where(frames[..., 1] & 1, 0.0, 1.0)
    if "Frand" in metrics:
        # |<psi| X^fx Z^fz |psi>|^2 of the frame that starts each run; a frame is two k-bit masks
        n_trials, n_samples = frames.shape[:2]
        starts = np.ones((n_trials, n_samples), dtype=bool)
        starts[:, 1:] = (frames[:, 1:] != frames[:, :-1]).any(axis=2)
        first = np.flatnonzero(starts)
        states = haar[first // n_samples]
        fx, fz = frames.reshape(-1, 2)[first].T[..., None]  # (runs, 1) masks
        amps = np.einsum("pij,pij->pi", states.conj(), apply_pauli_masks(states, fx, fz))
        run_values = (np.abs(amps) ** 2).mean(axis=1)
        values["Frand"] = run_values[np.cumsum(starts).reshape(n_trials, n_samples) - 1]
    return values


# Amplitudes in the statevector backend's stack of probe states: 64 MiB of complex128.
_STACK_AMPLITUDES = 1 << 22


def simulate(
    code: CpcCode | GeneralCpcCode,
    model: ErrorModel,
    cfg: SimConfig,
    backend: str = "pauli_frame",
) -> SimResult:
    """Monte Carlo fidelity curves over repeated correction cycles.

    Returns per-sample-time means and standard errors (over trials) of the
    requested metrics: ``F0`` is the probability that data qubit 0 still
    reads 0 from the all-zeros start, ``Fplus`` the conjugate-basis analogue,
    and ``Frand`` the state fidelity averaged over Haar-random data states.
    Syndromes with no single-error explanation are left uncorrected on the
    unknown side and counted in ``uncorrectable_cycles``.  A code with no data
    qubit has no fidelity to track and raises ``ValueError``.

    The ``statevector`` backend runs 2 + ``haar_states`` (2 without Frand)
    probe states of 2**n amplitudes in one stack, so it refuses more than 14
    qubits or a stack over 2**22 amplitudes (64 MiB) with ``ValueError``.  It
    reads a cycle's syndrome as the one block of 2**k data amplitudes that
    holds every probe's weight; if there is none, ``RuntimeError`` names the
    lowest check over which the weight spreads.
    """
    if backend not in ("pauli_frame", "statevector"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "statevector":
        if code.qubit_count > 14:
            raise ValueError("statevector backend is limited to 14 qubits")
        probes = 2 + (cfg.haar_states if "Frand" in cfg.metrics else 0)
        if probes << code.qubit_count > _STACK_AMPLITUDES:
            raise ValueError(
                f"statevector backend: {probes} probe states of 2**{code.qubit_count} "
                f"amplitudes exceed the 2**22-amplitude stack; lower haar_states"
            )
    k = code.k
    if k == 0:
        raise ValueError("simulate needs a code with at least one data qubit, got data 0")
    if code.qubit_count > 62:
        raise ValueError("simulate supports at most 62 qubits (frames are int64 masks)")
    faults = fault_table(code)
    r = cfg.cycle_rate
    probs = faults.probs(model, r)
    n_cycles = max(1, int(round(cfg.t_max * r)))
    times = np.linspace(0.0, cfg.t_max, cfg.samples + 1)
    sample_cycles = np.minimum(
        np.floor(times * r + 1e-9).astype(int), n_cycles
    ).astype(_cycle_dtype(n_cycles))

    sums = {m: np.zeros(times.size) for m in cfg.metrics}
    sumsq = {m: np.zeros(times.size) for m in cfg.metrics}
    uncorrectable = 0
    frand = "Frand" in cfg.metrics
    # Trial t's events come from the stream of SeedSequence(seed, spawn_key=(t, 0))
    # and its Haar states from (t, 1): one generator per stream, reset to each key.
    seq = np.random.SeedSequence(cfg.rng_seed)
    event_rng = np.random.Generator(np.random.Philox(seq))
    haar_rng = np.random.Generator(np.random.Philox(seq)) if frand else None

    def draws(trials):
        """The block's error events, one (cycles, faults) pair per trial, and
        its Haar states, (trials, haar_states, 2**k), or None without Frand."""
        keys = _philox_keys(seq, trials, 0).tolist()
        events = [_sample_error_events(_reset(event_rng, key), probs, n_cycles) for key in keys]
        if not frand:
            return events, None
        keys = _philox_keys(seq, trials, 1).tolist()
        parts = [_reset(haar_rng, key).normal(size=(cfg.haar_states, 2, 1 << k)) for key in keys]
        return events, _haar_states(np.stack(parts))

    def add(values):
        """Add a block's (trials, samples) rows trial by trial: an axis-0
        reduce of [sums; rows] adds row after row, in order."""
        for m in cfg.metrics:
            sums[m] = np.add.reduce(np.vstack((sums[m], values[m])))
            sumsq[m] = np.add.reduce(np.vstack((sumsq[m], values[m] ** 2)))

    cells = (sample_cycles.size + 1) * max(probs.size, cfg.haar_states << k if frand else 0)
    block = max(1, min(_TRIAL_BLOCK, _BLOCK_CELLS // cells))
    for first in range(0, cfg.trials, block):
        events, haar = draws(range(first, min(first + block, cfg.trials)))
        if backend == "pauli_frame":
            frames, unknown = _frame_block(events, faults, sample_cycles)
            values = _frame_values(frames, haar, cfg.metrics)
        else:
            values, unknown = _statevector_block(code, events, sample_cycles, haar, cfg.metrics)
        uncorrectable += unknown
        add(values)

    means = {m: sums[m] / cfg.trials for m in cfg.metrics}
    errors = {}
    for m in cfg.metrics:
        if cfg.trials > 1:
            var = (sumsq[m] - cfg.trials * means[m] ** 2) / (cfg.trials - 1)
            errors[m] = np.sqrt(np.maximum(var, 0.0) / cfg.trials)
        else:
            errors[m] = np.zeros_like(means[m])
    return SimResult(
        times=times,
        means=means,
        errors=errors,
        uncorrectable_cycles=uncorrectable,
        trials=cfg.trials,
    )


def _statevector_block(
    code, events, sample_cycles, haar, metrics
) -> tuple[dict[str, np.ndarray], int]:
    """Metric values, (trials, samples) each, of a block of trials by full
    statevector evolution, and the number of cycles whose syndrome has no
    single-error explanation.

    Each trial runs alone, on the events and Haar states that the Pauli-frame
    kernel reads, its faults merged into one (x, z) Pauli per error cycle.
    Its probes are the rows of one stack of k-qubit data states: |0..0> for
    F0, |+..+> for Fplus, then its Haar states.  Each cycle puts the data next
    to checks in |0..0>; a Hadamard on each second-side check before encoding
    and after decoding makes every check read in Z, so the decoded register is
    one block of 2**k data amplitudes per syndrome.  The syndrome is the block
    that holds every probe's weight, and that block, renormalised and
    corrected, is the next cycle's data.
    """
    n, k, faults = code.qubit_count, code.k, fault_table(code)
    table = faults.table
    # Check i is qubit k + i, measured in Z on the first syndrome side, X on the second.
    turn = Circuit(n, tuple(hadamard(q) for q in range(k + table.n_first, n)))
    enc, dec = turn + encode_circuit(code), decode_circuit(code) + turn
    plus = np.full(1 << k, 1.0 / math.sqrt(1 << k))
    even = np.arange(1 << k) & 1 == 0
    values = {m: np.zeros((len(events), len(sample_cycles))) for m in metrics}
    unknown = 0
    for t, (event_cycles, fault_ids) in enumerate(events):
        (cycles,), masks = _xor_by_keys((event_cycles,), faults.paulis[fault_ids])
        data = np.array([zero_state(k), plus, *(() if haar is None else haar[t])])
        # each sample time's new error cycles; those after the last one are never read
        for s, new in enumerate(np.split(masks, np.searchsorted(cycles, sample_cycles))[:-1]):
            for x_mask, z_mask in new.tolist():
                register = np.zeros((len(data), 1 << n), dtype=np.complex128)
                register[:, : 1 << k] = data
                register = apply_pauli_masks(apply_circuit(register, enc), x_mask, z_mask)
                blocks = apply_circuit(register, dec).reshape(len(data), -1, 1 << k)
                weights = (np.abs(blocks) ** 2).sum(axis=2)
                syndrome = int(weights[0].argmax())
                if weights[:, syndrome].min() < 1.0 - 1e-9:
                    # each check's weight on the blocks that read it otherwise: the weight
                    # off the syndrome is at most their sum, so one passes 1e-9 / checks
                    other = (np.arange(weights.shape[1]) ^ syndrome)[:, None] >> np.arange(n - k)
                    check = ((weights @ (other & 1)).max(axis=0) > 1e-9 / (n - k)).argmax()
                    message = f"check {check} is not in an eigenstate of its measured Pauli"
                    raise RuntimeError(message)
                (cx, cz), known = table.lookup(
                    syndrome & ((1 << table.n_first) - 1), syndrome >> table.n_first
                )
                unknown += not known
                # 1/sqrt(2) rounds up, so every pair of H gates grows the norm by ~2e-16
                block = blocks[:, syndrome] / np.sqrt(weights[:, syndrome, None])
                data = apply_pauli_masks(block, cx, cz)
            # F0 and Fplus: the weight of data qubit 0 reading 0, in Z and in X.
            if "F0" in metrics:
                values["F0"][t, s] = np.sum(np.abs(data[0, even]) ** 2)
            if "Fplus" in metrics:
                values["Fplus"][t, s] = np.sum(np.abs(apply_1q(data[1], 0, _H_MATRIX)[even]) ** 2)
            if "Frand" in metrics:
                # per-row np.vdot summed in order; a batched reduction rounds the CSV's last digits
                overlaps = [abs(np.vdot(r, v)) ** 2 for r, v in zip(haar[t], data[2:])]
                values["Frand"][t, s] = sum(overlaps) / len(overlaps)
    return values, unknown


# --- half-life fitting --------------------------------------------------------


@dataclass(frozen=True)
class HalfLifeFit:
    lambda_half: float
    f_inf: float
    residual_rms: float
    degenerate: bool = False


# The fit stops with RuntimeError after this many model evaluations.
FIT_MAX_NFEV = 20000


def fit_half_life(times, values) -> HalfLifeFit:
    """Least-squares fit of F(t) = F_inf + (1 - F_inf) * 2^(-t / lambda_half).

    ``F_inf`` is constrained to [0, 1] and ``lambda_half`` to at least 1e-9.
    The fit is scipy 1.17's bounded trust-region-reflective least squares, run
    step for step by :func:`_trf_fit`, so it does not change with the
    installed optimizer; one not converged after ``FIT_MAX_NFEV`` model
    evaluations raises ``RuntimeError``.  A constant series cannot pin the
    half-life down and is returned flagged as degenerate.  ``times`` and
    ``values`` must be finite 1-D arrays of one shape with at least 4 points;
    times must be non-negative with at least two distinct, and values are
    fidelities, in [0, 1] up to 1e-9.  Anything else raises ``ValueError``.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError(f"times and values differ in shape: {times.shape} vs {values.shape}")
    if times.ndim != 1:
        raise ValueError(f"times and values must be 1-D, got shape {times.shape}")
    if not (np.isfinite(times).all() and np.isfinite(values).all()):
        raise ValueError("times and values must be finite")
    if times.size < 4:
        raise ValueError("need at least 4 time points")
    if times.min() < 0.0:
        raise ValueError(f"times must be non-negative, got {times.min():g}")
    if float(np.ptp(times)) == 0.0:
        raise ValueError("need at least 2 distinct times")
    if values.min() < -1e-9 or values.max() > 1.0 + 1e-9:
        raise ValueError(
            f"values must lie in [0, 1], got {values.min():g}..{values.max():g}"
        )
    if float(np.ptp(values)) < 1e-12:
        return HalfLifeFit(
            lambda_half=math.inf,
            f_inf=float(np.clip(values.mean(), 0.0, 1.0)),
            residual_rms=0.0,
            degenerate=True,
        )
    f0 = float(np.clip(values.min(), 0.0, 1.0))
    half_level = (1.0 + f0) / 2.0
    below = np.nonzero(values < half_level)[0]
    lam0 = float(times[below[0]]) if below.size and times[below[0]] > 0 else float(times[-1])
    lam, f_inf, residual = _trf_fit(-math.log(2.0) * times, values, max(lam0, 1e-6), f0)
    return HalfLifeFit(
        lambda_half=lam, f_inf=f_inf, residual_rms=float(np.sqrt(np.mean(residual**2)))
    )


# --- the fit: scipy's bounded trust-region-reflective loop -------------------
#
# scipy.optimize's least squares with method "trf" as of scipy 1.17, with its
# defaults (2-point Jacobian, x_scale 1, ftol = xtol = gtol = 1e-8), for
# x = (lambda, F_inf) in [1e-9, inf) x [0, 1]: trf_bounds, approx_derivative,
# solve_lsq_trust_region and select_step.  Every dot product, norm and power
# is taken as scipy takes it (numpy's dot may fuse multiply-adds), so every
# iterate is the same float.  Its SVD is the gesdd of scipy's compiled LAPACK
# module (_gesdd): a fit imports neither scipy.optimize nor scipy.linalg.

_LOWER, _UPPER = (1e-9, 0.0), (math.inf, 1.0)
_TOL = 1e-8
_EPS = float(np.finfo(float).eps)


@functools.cache
def _gesdd():
    # The LAPACK SVD that scipy.linalg.svd calls, taken from the compiled module
    # that get_lapack_funcs(..., ilp64="preferred") takes it from: _flapack_64,
    # which scipy builds only with ILP64 LAPACK, else _flapack.  Only that
    # extension is loaded, not the scipy.linalg package (85 scipy modules), and
    # it is registered so that a later scipy.linalg reuses it.
    import scipy

    path = [os.path.join(p, "linalg") for p in scipy.__path__]
    for name in ("scipy.linalg._flapack_64", "scipy.linalg._flapack"):
        module = sys.modules.get(name)
        if module is None:
            spec = importlib.machinery.PathFinder.find_spec(name, path)
            if spec is None:
                continue
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
        return module.dgesdd, module.dgesdd_lwork
    raise ImportError(f"no module named 'scipy.linalg._flapack' in {path}")


def _norm(v: np.ndarray) -> float:
    return math.sqrt(v.dot(v))  # as np.linalg.norm computes it


def _to_bound(x, s) -> tuple[float, list[bool]]:
    """step_size_to_bound: the stride along s to the first bound, and which
    components reach it."""
    steps = [
        max((lo - a) / b, (hi - a) / b) if b else math.inf
        for a, b, lo, hi in zip(x.tolist(), s.tolist(), _LOWER, _UPPER)
    ]
    return min(steps), [b != 0 and t == min(steps) for b, t in zip(s.tolist(), steps)]


def _quadratic(J, g, s, diag, s0=None):
    """build_quadratic_1d: the model cost at s0 + t s as a t^2 + b t + c."""
    v = J.dot(s)
    a, b = 0.5 * (np.dot(v, v) + np.dot(s * diag, s)), np.dot(g, s)
    if s0 is None:
        return a, b, 0.0
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    return a, b + np.dot(s0 * diag, s), c + 0.5 * np.dot(s0 * diag, s0)


def _minimize_1d(a, b, c, lo, hi) -> tuple[float, float]:
    t = [lo, hi] + ([-0.5 * b / a] if a != 0 and lo < -0.5 * b / a < hi else [])
    y = [ti * (a * ti + b) + c for ti in t]
    return t[y.index(min(y))], min(y)


def _tr_solve(m, uf, s, V, Delta, alpha):
    """solve_lsq_trust_region: the hat step of norm at most Delta, and its
    Levenberg-Marquardt parameter."""
    suf = s * uf

    def phi(alpha):  # the step's norm minus Delta, and its derivative
        denom = s**2 + alpha
        p_norm = _norm(suf / denom)
        return p_norm - Delta, -np.sum(suf**2 / denom**3) / p_norm

    full_rank = s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if _norm(p) <= Delta:
            return p, 0.0
    upper, lower = _norm(suf) / Delta, 0.0
    if full_rank:
        value, slope = phi(0.0)
        lower = -value / slope
    elif alpha == 0:
        alpha = max(0.001 * upper, (lower * upper) ** 0.5)
    for _ in range(10):
        if alpha < lower or alpha > upper:
            alpha = max(0.001 * upper, (lower * upper) ** 0.5)
        value, slope = phi(alpha)
        if value < 0:
            upper = alpha
        ratio = value / slope
        lower = max(lower, alpha - ratio)
        alpha -= (value + Delta) * ratio / Delta
        if abs(value) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    return p * (Delta / _norm(p)), alpha


def _select_step(x, J_h, diag_h, g_h, p_h, d, Delta, theta):
    """select_step: of the trust-region step, its reflection off the first
    bound it crosses and the scaled gradient step, the one of least model
    cost, as (step, hat step, predicted reduction)."""
    p = d * p_h
    if all(lo <= a <= hi for a, lo, hi in zip((x + p).tolist(), _LOWER, _UPPER)):
        a, b, _ = _quadratic(J_h, g_h, p_h, diag_h)
        return p, p_h, -(a + b)
    p_stride, hits = _to_bound(x, p)
    r_h = np.where(hits, -p_h, p_h)
    p, p_h = p * p_stride, p_h * p_stride
    # how far along r_h from p_h the trust region ends (intersect_trust_region)
    a, b, c = np.dot(r_h, r_h), np.dot(p_h, r_h), np.dot(p_h, p_h) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    q = -(b + math.copysign(math.sqrt(b * b - a * c), b))
    to_tr = max(q / a, c / q)
    to_bound, _ = _to_bound(x + p, d * r_h)
    r_stride, r_value = min(to_bound, to_tr), math.inf
    lo, hi = 0.0, -1.0
    if r_stride > 0:
        lo = (1 - theta) * p_stride / r_stride
        hi = theta * to_bound if r_stride == to_bound else to_tr
    if lo <= hi:
        r_stride, r_value = _minimize_1d(*_quadratic(J_h, g_h, r_h, diag_h, s0=p_h), lo, hi)
        r_h = r_h * r_stride + p_h
    p, p_h = p * theta, p_h * theta
    a, b, _ = _quadratic(J_h, g_h, p_h, diag_h)
    p_value, ag_h = a + b, -g_h
    to_tr, (to_bound, _) = Delta / _norm(ag_h), _to_bound(x, d * ag_h)
    hi = theta * to_bound if to_bound < to_tr else to_tr
    ag_stride, ag_value = _minimize_1d(*_quadratic(J_h, g_h, ag_h, diag_h), 0.0, hi)
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r_h * d, r_h, -r_value
    return d * ag_h * ag_stride, ag_h * ag_stride, -ag_value


def _trf_fit(nlt, values, lam, f):
    """(lambda, F_inf, residuals) of the fit from (lam, f), where ``nlt`` is
    -ln(2) * times and lam is at least 1e-6."""
    m = values.size
    gesdd, gesdd_lwork = _gesdd()
    lwork = int(gesdd_lwork(m + 2, 2, compute_uv=1, full_matrices=0)[0].real)
    J_aug, f_aug = np.zeros((m + 2, 2)), np.zeros(m + 2)
    J_h = J_aug[:m]

    def model(lam, f):
        e = np.exp(nlt / lam)
        return f + (1.0 - f) * e - values, e

    def linearize(lam, f, r, e):
        # steps eps**0.5 * max(1, x), the F_inf one turned back from 1
        h, h_f = _EPS**0.5 * max(1.0, lam), _EPS**0.5 * (1.0 if f + _EPS**0.5 <= 1.0 else -1.0)
        Jt = np.array([
            (model(lam + h, f)[0] - r) / ((lam + h) - lam),
            ((f + h_f) + (1.0 - (f + h_f)) * e - values - r) / ((f + h_f) - f),
        ])
        g = Jt.dot(r)
        g_lam, g_f = g.tolist()  # Coleman-Li scaling v and its derivative dv
        v = [lam - 1e-9 if g_lam > 0 else 1.0, f if g_f > 0 else 1.0 - f if g_f < 0 else 1.0]
        return Jt, g, v, [float(g_lam > 0), float(g_f > 0) - float(g_f < 0)]

    # scipy first moves x0 1e-10 inside the bounds
    f = 1e-10 if f <= 1e-10 else 1.0 - 1e-10 if 1.0 - f <= 1e-10 else f
    x = np.array([lam, f])
    r, e = model(lam, f)
    Jt, g, v, dv = linearize(lam, f, r, e)
    cost = 0.5 * np.dot(r, r)
    Delta = _norm(x / np.sqrt(v)) or 1.0
    alpha, nfev, converged = 0.0, 1, False
    while not converged:
        g_norm = max(abs(a * b) for a, b in zip(g.tolist(), v))
        if g_norm < _TOL:
            break
        if nfev == FIT_MAX_NFEV:
            raise RuntimeError(
                "Optimal parameters not found: "
                "The maximum number of function evaluations is exceeded."
            )
        d, diag_h = np.sqrt(v), g * dv
        g_h, f_aug[:m], J_h[:] = d * g, r, Jt.T * d
        J_aug[m, 0], J_aug[m + 1, 1] = np.sqrt(diag_h)
        U, s, Vt, info = gesdd(J_aug, compute_uv=1, lwork=lwork, full_matrices=0)
        if info:
            raise np.linalg.LinAlgError("SVD did not converge")
        uf, V, theta = U.T.dot(f_aug), Vt.T, max(0.995, 1 - g_norm)
        reduction = -1.0
        while reduction <= 0 and nfev < FIT_MAX_NFEV:
            p_h, alpha = _tr_solve(m, uf, s, V, Delta, alpha)
            step, step_h, predicted = _select_step(x, J_h, diag_h, g_h, p_h, d, Delta, theta)
            # make_strictly_feasible(rstep=0): a point on a bound moves one ulp inside
            x_new = np.array([
                math.nextafter(hi, lo) if a >= hi else math.nextafter(lo, hi) if a <= lo else a
                for a, lo, hi in zip((x + step).tolist(), _LOWER, _UPPER)
            ])
            # residuals are finite for every lambda >= 1e-9: no retry for a non-finite one
            r_new, e_new = model(*x_new.tolist())
            nfev += 1
            step_h_norm = _norm(step_h)
            cost_new = 0.5 * np.dot(r_new, r_new)
            reduction = cost - cost_new
            ratio = reduction / predicted if predicted > 0 else float(predicted == reduction == 0)
            # check_termination's ftol and xtol tests, then update_tr_radius
            converged = (reduction < _TOL * cost and ratio > 0.25) or (
                _norm(step) < _TOL * (_TOL + _norm(x))
            )
            if converged:
                break
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new = 2.0 * Delta
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if reduction > 0:
            x, r, cost = x_new, r_new, cost_new
            if not converged:  # scipy's Jacobian at its last point changes nothing
                Jt, g, v, dv = linearize(*x.tolist(), r, e_new)
    lam, f = x.tolist()
    return lam, f, r


# --- coherent error analytics -------------------------------------------------


@dataclass(frozen=True)
class CoherentFidelity:
    fidelity: float
    syndrome_probs: dict[str, float]


def coherent_fidelity_631(
    epsilon: float, data_state: np.ndarray | None = None
) -> CoherentFidelity:
    """Exact 6-qubit treatment of the three-data-qubit bit-flip code
    (``fixtures/6-3-1.cpc``) under a coherent rotation error
    cos(e)*I + i*sin(e)*X on every qubit.

    One full encode/error/decode round is computed on the statevector; each
    of the eight check outcomes is then corrected by the code's decode table
    (no fired checks or a single fired check or all three: do nothing; two
    fired checks: flip the data qubit they share) and the resulting fidelity
    contributions are summed.  The data register defaults to |000>, for which
    interference terms between distinct error patterns vanish.  A given
    ``data_state`` must be a unit vector of shape ``(8,)``.
    """
    if not 0.0 <= epsilon < math.pi / 4:
        raise ValueError("epsilon must lie in [0, pi/4)")
    bits = Gf2Matrix([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    code = CpcCode(mb=bits, mp=Gf2Matrix.zeros(3, 0), mc=Gf2Matrix.zeros(3, 0))
    k, n = code.k, code.qubit_count
    if data_state is None:
        data_state = zero_state(k)
    data_state = np.asarray(data_state, dtype=np.complex128)
    if data_state.shape != (1 << k,):
        raise ValueError(f"data_state must have shape ({1 << k},), got {data_state.shape}")
    norm = float(np.linalg.norm(data_state))
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"data_state must have unit norm, got norm {norm:.6g}")
    state = np.zeros(1 << n, dtype=np.complex128)
    state[np.arange(1 << k)] = data_state

    state = apply_circuit(state, encode_circuit(code))
    c, s = math.cos(epsilon), math.sin(epsilon)
    err = np.array([[c, 1j * s], [1j * s, c]], dtype=np.complex128)
    for q in range(n):
        state = apply_1q(state, q, err)
    state = apply_circuit(state, decode_circuit(code))

    table = decode_table(code)
    fidelity = 0.0
    probs: dict[str, float] = {}
    # one block of 2**k data amplitudes per syndrome, as the statevector backend reads it
    branches = state.reshape(-1, 1 << k)
    corrections, _ = table.lookup(np.arange(len(branches)), 0)
    corrected = apply_pauli_masks(branches, corrections[:, 0], 0)
    for synd, (branch, fixed) in enumerate(zip(branches, corrected)):
        fidelity += float(np.abs(np.vdot(data_state, fixed)) ** 2)
        probs[table.syndrome_text(synd, 0)] = float(np.sum(np.abs(branch) ** 2))
    return CoherentFidelity(fidelity=fidelity, syndrome_probs=probs)
