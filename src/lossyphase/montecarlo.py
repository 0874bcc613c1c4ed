"""Deterministic, seedable Monte Carlo generation of coincidence-count datasets."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .bounds import NOON_WEIGHTS, ProbeWeights, optimize_weights
from .detection import LABELS, DetectionConfig, OutcomeModel, Setting, optimize_theta_d
from .fock import FockState
from .imperfections import ImperfectionParams, apply_coupler_thinning, build_model, fibre_input
from .prep import prepare, solve_prep
from .workers import fork_map

#: Settings by their code in a dataset's setting column, which is also the
#: stream index of their substream.
SETTINGS = (Setting.QUARTER, Setting.HALF)

#: Stream index reserved for the per-series event-count draw.
_SERIES_STREAM = len(SETTINGS)

# Constants of numpy.random.SeedSequence with its default pool of four words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


class ProbeKind(Enum):
    OPTIMAL = "optimal"
    NOON = "noon"


#: Probe kinds by their code in a dataset's probe column.
PROBES = tuple(ProbeKind)


def default_phase_list() -> tuple[float, ...]:
    """Fifteen phases centered on zero with 0.02 rad increments."""
    return tuple(round(0.02 * (i - 7), 10) for i in range(15))


@dataclass(frozen=True)
class ExperimentConfig:
    eta_list: tuple[float, ...] = (0.2, 0.361, 0.4, 0.547)
    probe_kind: ProbeKind = ProbeKind.OPTIMAL
    phase_list: tuple[float, ...] = field(default_factory=default_phase_list)
    series_count: int = 300
    events_per_series: int = 2000
    master_seed: int = 0
    imperfections: ImperfectionParams = field(default_factory=ImperfectionParams)
    poissonize_m: bool = True

    def __post_init__(self):
        object.__setattr__(self, "eta_list", tuple(float(e) for e in self.eta_list))
        object.__setattr__(self, "phase_list", tuple(float(p) for p in self.phase_list))
        if not self.eta_list or any(not 0.0 < e <= 1.0 for e in self.eta_list):
            raise ValueError("eta_list must be non-empty with every value in (0, 1]")
        if not self.phase_list:
            raise ValueError("phase_list must be non-empty")
        if not all(math.isfinite(p) for p in self.phase_list):
            raise ValueError("phase_list entries must be finite")
        for name, values in (("eta_list", self.eta_list), ("phase_list", self.phase_list)):
            if len(set(values)) < len(values):  # by value: 0.0 and -0.0 are one phase
                raise ValueError(f"{name} repeats a value: {values}")
        if self.series_count < 1:
            raise ValueError("series_count must be at least 1")
        if self.events_per_series < 1:
            raise ValueError("events_per_series must be at least 1")
        if int(self.master_seed) < 0:
            raise ValueError("master_seed must be a non-negative integer")


@dataclass(frozen=True)
class EventRecord:
    eta: float
    probe: ProbeKind
    phi_true: float
    setting: Setting
    series_id: int
    counts: dict[str, int]
    seed_used: int


class RowView(Sequence):
    """Read-only sequence of ``n`` items, item i built by ``build(i)`` on access."""

    def __init__(self, n: int, build):
        self._n, self._build = n, build

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        rows = range(self._n)[i]  # raises IndexError; a slice gives a range
        return [self._build(j) for j in rows] if isinstance(i, slice) else self._build(rows)


@dataclass(frozen=True, eq=False)
class EventDataset:
    """A campaign's records as columns, one row per record: ``eta`` and
    ``phi_true`` are float64 values (a parsed -0 keeps its sign), ``probe`` and
    ``setting`` index ``PROBES`` and ``SETTINGS``, ``counts`` is in LABELS
    order."""

    config: ExperimentConfig
    eta: np.ndarray  # float64
    probe: np.ndarray
    phi_true: np.ndarray  # float64
    setting: np.ndarray
    series_id: np.ndarray  # int64
    counts: np.ndarray  # (rows, labels) int64
    seed_used: np.ndarray  # uint64

    @property
    def records(self) -> RowView:
        """The rows as EventRecords, each built on access."""
        return RowView(len(self.series_id), self.record)

    def record(self, i: int) -> EventRecord:
        return EventRecord(
            float(self.eta[i]), PROBES[self.probe[i]], float(self.phi_true[i]), SETTINGS[self.setting[i]],
            int(self.series_id[i]), dict(zip(LABELS, self.counts[i].tolist())), int(self.seed_used[i]),
        )


def _int_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer; [0] for zero."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def substream_states(master_seed: int, keys) -> np.ndarray:
    """PCG64 seed states of many substreams in one vectorized pass.

    Row i equals ``np.random.SeedSequence(entropy=(master_seed, *keys[i]))
    .generate_state(4, np.uint64)``: the entropy words are those of the master
    seed followed by the four indices (eta, phase, series, stream), mixed into
    a pool of four 32-bit words and hashed out as four 64-bit words. Word 0 is
    the record's ``seed_used``.
    """
    master_seed = int(master_seed)
    if master_seed < 0:
        raise ValueError("master_seed must be a non-negative integer")
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.shape[1] != 4:
        raise ValueError("substream keys must be rows of four indices")
    if keys.size and (keys.dtype.kind not in "iu" or keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("substream indices must be integers in [0, 2**32)")
    n = len(keys)
    entropy = [np.full(n, word, dtype=np.uint32) for word in _int_words(master_seed)]
    entropy += [keys[:, j].astype(np.uint32) for j in range(4)]

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    # The entropy always has at least five words, more than the pool holds.
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = np.empty((n, 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=None)
def _derived_state_type() -> type:
    """Seed-sequence type that hands PCG64 a state from ``substream_states``,
    so numpy's own PCG64 seeding turns it into the same generator as the
    equivalent SeedSequence. Built on first use: importing numpy.random costs
    commands that draw nothing about 15 ms and 5 MB."""
    from numpy.random.bit_generator import ISeedSequence

    class DerivedState(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words  # one contiguous uint64 row of four words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or dtype is not np.uint64:
                raise ValueError("a derived substream state only seeds PCG64")
            return self.words

    return DerivedState


def _substream(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_derived_state_type()(words)))


def record_rng(
    master_seed: int, eta_index: int, phase_index: int, series_id: int, stream: int
) -> tuple[np.random.Generator, int]:
    """Counter-style substream: the generator is a pure function of its key, so
    any record is reproducible in isolation and in parallel."""
    words = substream_states(master_seed, [[eta_index, phase_index, series_id, stream]])[0]
    return _substream(words), int(words[0])


def _label_pvals(probs) -> np.ndarray:
    """Label probabilities in LABELS order, checked and renormalized for a
    multinomial draw."""
    probs = np.asarray(probs, dtype=float)
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-9:  # also rejects NaN
        raise ValueError(f"distribution is not normalized (sum {total})")
    return probs / total


def _draw_counts(pvals: np.ndarray, m: int, rng: np.random.Generator) -> list[int]:
    """Multinomial label counts in LABELS order. For m = 0 numpy returns zeros
    without advancing ``rng``; it rejects a negative m."""
    return rng.multinomial(m, pvals).tolist()


def sample_counts(distribution: dict[str, float], m: int, rng: np.random.Generator) -> dict[str, int]:
    """Multinomial draw of m coincidence events over the labels."""
    pvals = _label_pvals([float(distribution.get(label, 0.0)) for label in LABELS])
    return dict(zip(LABELS, _draw_counts(pvals, m, rng)))


def build_probe(weights: ProbeWeights, params: ImperfectionParams) -> FockState:
    """Probe state actually delivered to the interferometer: the splitter
    settings target ``weights``, the fibre state feeds the network."""
    cfg = solve_prep(weights)
    state, _ = prepare(
        cfg.theta1, cfg.theta2, cfg.attenuated_arm, input_state=fibre_input(params.epsilon, params.delta)
    )
    return state.normalize()


def _prepared(kind: ProbeKind, eta: float, params: ImperfectionParams) -> tuple[float, ProbeWeights, FockState]:
    """(eta, target weights, delivered probe) of one (probe, transmission)
    choice: the weights maximize the lossy QFI. Weights the preparation
    network cannot make raise ValueError naming eta."""
    weights = NOON_WEIGHTS if kind is ProbeKind.NOON else optimize_weights(eta)[0]
    try:
        probe = build_probe(weights, params)
    except ValueError as exc:  # below eta ~ 3e-22 the optimum has x1 > 0 but x0 = 0
        raise ValueError(
            f"{kind.value} probe at eta={eta:.12g}: weights {weights.as_tuple()} cannot be prepared: {exc}"
        ) from None
    return eta, weights, probe


def _tuned(prepared: list) -> list[tuple[ProbeWeights, DetectionConfig]]:
    """Designs of ``_prepared`` choices: one ``optimize_theta_d`` call suits
    the final splitter and conditional phase to every delivered probe."""
    configs = optimize_theta_d([probe for _, _, probe in prepared], [eta for eta, _, _ in prepared])
    return [(weights, config) for (_, weights, _), config in zip(prepared, configs)]


@lru_cache(maxsize=None)
def probe_design(kind: ProbeKind, eta: float, params: ImperfectionParams) -> tuple[ProbeWeights, DetectionConfig]:
    """Target weights and quarter-setting detection of one (probe,
    transmission) choice, cached per process: ``probe_designs`` of one eta."""
    return _tuned([_prepared(kind, eta, params)])[0]


def probe_designs(kind: ProbeKind, etas, params: ImperfectionParams) -> list[tuple[ProbeWeights, DetectionConfig]]:
    """The design of each eta, resolved in ``fork_map``'s dealt hands, since
    the costly designs, those with a |11> component, lie together at low eta.
    Each hand prepares its probes in order, stopping at the first eta that
    cannot be prepared, then tunes their detection in one
    ``optimize_theta_d`` call; the lowest such eta is named."""
    return fork_map(lambda eta: _prepared(kind, eta, params), etas, _tuned)


def setting_models(
    kind: ProbeKind, eta: float, params: ImperfectionParams, design: tuple[ProbeWeights, DetectionConfig] | None = None
) -> dict[Setting, OutcomeModel]:
    """Outcome models for both settings of one (probe, transmission) choice,
    built from ``design`` or else from the one ``probe_design`` resolves."""
    weights, quarter = design or probe_design(kind, eta, params)
    probe = build_probe(weights, params)
    half = DetectionConfig(Setting.HALF, 0.5)
    return {
        Setting.QUARTER: build_model(probe, eta, quarter, params),
        Setting.HALF: build_model(probe, eta, half, params),
    }


def campaign_counts(config: ExperimentConfig) -> np.ndarray:
    """The empty count array of the campaign ``config`` describes, by eta,
    phase, series, setting and label."""
    shape = (len(config.eta_list), len(config.phase_list), config.series_count, len(SETTINGS), len(LABELS))
    return np.empty(shape, dtype=np.int64)


def run_campaign(config: ExperimentConfig, designs: list | None = None, counts: np.ndarray | None = None) -> EventDataset:
    """Simulate the full measurement campaign described by ``config``.

    Every record is generated from its own substream, so the dataset is a pure
    function of the configuration and any subset can be regenerated alone.
    The substreams are those of ``record_rng``, derived for the whole campaign
    at once. Rows run over (eta, phase, series, setting), the last fastest.
    ``designs`` holds the design of each eta (by default ``probe_designs``
    resolves them); ``fork_map`` deals the etas, whose models and label
    probabilities it builds, then the cells, which it draws into ``counts``
    (by default ``campaign_counts`` allocates it).
    """
    kind, params = config.probe_kind, config.imperfections
    designs = probe_designs(kind, config.eta_list, params) if designs is None else designs

    def cell_pvals(eta_index: int) -> list:
        models = setting_models(kind, config.eta_list[eta_index], params, designs[eta_index])
        return [[_label_pvals(models[s].probabilities(phi)) for s in SETTINGS] for phi in config.phase_list]

    eta_pvals = fork_map(cell_pvals, range(len(config.eta_list)))
    shape = (len(config.eta_list), len(config.phase_list), config.series_count, len(SETTINGS))
    states = substream_states(config.master_seed, np.indices((*shape[:3], _SERIES_STREAM + 1)).reshape(4, -1).T)
    states = states.reshape(*shape[:3], _SERIES_STREAM + 1, 4)  # no worker inherits the 1.7 MB of keys
    counts = campaign_counts(config) if counts is None else counts
    # (eta index, phase index, label pvals per setting) of each cell, in row order
    cells = [(i, j, cell) for i, row in enumerate(eta_pvals) for j, cell in enumerate(row)]

    def draw(cell) -> np.ndarray:
        eta_index, phase_index, pvals = cell
        out = counts[eta_index, phase_index]
        for series_id, words in enumerate(states[eta_index, phase_index]):
            if config.poissonize_m:
                m_total = int(_substream(words[_SERIES_STREAM]).poisson(config.events_per_series))
            else:
                m_total = config.events_per_series
            split = (m_total // 2, m_total - m_total // 2)  # quarter, half
            for stream, (probs, m) in enumerate(zip(pvals, split)):
                rng = _substream(words[stream])
                out[series_id, stream] = apply_coupler_thinning(_draw_counts(probs, m, rng), rng)
        return out

    for (eta_index, phase_index, _), drawn in zip(cells, fork_map(draw, cells)):
        counts[eta_index, phase_index] = drawn  # a worker's slice; the caller's own are in place already
    index = np.indices(shape).reshape(len(shape), -1)
    return EventDataset(
        config=config,
        eta=np.array(config.eta_list)[index[0]],
        probe=np.full(index.shape[1], PROBES.index(config.probe_kind), dtype=np.int8),
        phi_true=np.array(config.phase_list)[index[1]],
        series_id=index[2],
        setting=index[3],
        counts=counts.reshape(-1, len(LABELS)),
        seed_used=states[:, :, :, : len(SETTINGS), 0].reshape(-1),
    )
