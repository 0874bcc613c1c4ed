"""Monte Carlo campaign: deterministic substreams, multinomial sampling, consistency."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from lossyphase.cli import write_dataset_csv
from lossyphase.detection import HALF_LABELS, LABELS, Setting
from lossyphase.imperfections import ImperfectionParams
from lossyphase.montecarlo import (
    SETTINGS,
    ExperimentConfig,
    ProbeKind,
    default_phase_list,
    record_rng,
    run_campaign,
    sample_counts,
    setting_models,
    substream_states,
)


class TestConfig:
    def test_defaults_match_campaign_shape(self):
        config = ExperimentConfig(master_seed=1)
        assert config.eta_list == (0.2, 0.361, 0.4, 0.547)
        assert len(config.phase_list) == 15
        assert config.series_count == 300
        assert config.events_per_series == 2000
        steps = np.diff(config.phase_list)
        assert np.allclose(steps, 0.02, atol=1e-12)
        assert abs(config.phase_list[7]) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(eta_list=(0.0,))
        with pytest.raises(ValueError):
            ExperimentConfig(series_count=0)
        with pytest.raises(ValueError):
            ExperimentConfig(phase_list=())
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                ExperimentConfig(eta_list=(0.2, bad))
            with pytest.raises(ValueError):
                ExperimentConfig(phase_list=(0.0, bad))

    @pytest.mark.parametrize("name, values", [("eta_list", (0.361, 0.2, 0.361)), ("phase_list", (0.0, -0.0))])
    def test_repeated_value_rejected(self, name, values):
        """Values are compared by value, so 0.0 and -0.0 are one phase."""
        with pytest.raises(ValueError, match=f"{name} repeats a value"):
            ExperimentConfig(**{name: values})


class TestSampleCounts:
    def test_zero_events(self):
        dist = {label: 1.0 / 6.0 for label in LABELS}
        counts = sample_counts(dist, 0, np.random.default_rng(0))
        assert all(v == 0 for v in counts.values())

    def test_point_mass(self):
        dist = {label: 0.0 for label in LABELS}
        dist["AB"] = 1.0
        counts = sample_counts(dist, 37, np.random.default_rng(0))
        assert counts["AB"] == 37
        assert sum(counts.values()) == 37

    def test_binomial_moments(self):
        dist = {label: 0.0 for label in LABELS}
        dist["AA"] = 0.5
        dist["BB"] = 0.5
        counts = sample_counts(dist, 1_000_000, np.random.default_rng(11))
        assert abs(counts["AA"] - 500_000) < 2500  # five sigma

    def test_rejects_unnormalized(self):
        dist = {label: 0.3 for label in LABELS}
        with pytest.raises(ValueError):
            sample_counts(dist, 10, np.random.default_rng(0))


class TestSubstreams:
    def test_pure_function_of_key(self):
        _, seed_a = record_rng(9, 1, 2, 3, 0)
        _, seed_b = record_rng(9, 1, 2, 3, 0)
        assert seed_a == seed_b
        _, seed_c = record_rng(9, 1, 2, 4, 0)
        assert seed_a != seed_c

    def test_streams_differ_between_settings(self):
        rng_a, _ = record_rng(9, 0, 0, 0, 0)
        rng_b, _ = record_rng(9, 0, 0, 0, 1)
        assert rng_a.integers(0, 2**32) != rng_b.integers(0, 2**32)

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=4, max_size=4),
    )
    def test_bulk_states_match_seed_sequence(self, master_seed, key):
        """The vectorized derivation reproduces numpy's SeedSequence state,
        and word 0 is the seed_used that record_rng reports."""
        keys = np.array([key, [0, 0, 0, 0], [1, 2, 3, 2]])
        states = substream_states(master_seed, keys)
        for row, words in zip(keys, states):
            oracle = np.random.SeedSequence(entropy=(master_seed, *(int(k) for k in row)))
            np.testing.assert_array_equal(words, oracle.generate_state(4, np.uint64))
        _, seed_used = record_rng(master_seed, *key)
        assert seed_used == int(states[0, 0])

    @pytest.mark.parametrize("master_seed", [0, 5, 2**40 + 7, 2**64 - 1, 3 * 2**70 + 11])
    def test_generator_matches_seed_sequence(self, master_seed):
        rng, _ = record_rng(master_seed, 3, 14, 299, 2)
        oracle = np.random.default_rng(np.random.SeedSequence(entropy=(master_seed, 3, 14, 299, 2)))
        assert rng.integers(0, 2**63, 8).tolist() == oracle.integers(0, 2**63, 8).tolist()
        assert rng.poisson(2000) == oracle.poisson(2000)

    def test_rejects_out_of_range_keys(self):
        with pytest.raises(ValueError):
            record_rng(-1, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            record_rng(0, 0, 0, 2**32, 0)
        with pytest.raises(ValueError):
            substream_states(0, [[0, 0, -1, 0]])


def small_config(**kwargs):
    base = dict(
        eta_list=(0.361,),
        probe_kind=ProbeKind.NOON,
        phase_list=(0.0, 0.04),
        series_count=5,
        events_per_series=400,
        master_seed=21,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


#: The row columns of an EventDataset.
COLUMNS = ("eta", "probe", "phi_true", "setting", "series_id", "counts", "seed_used")


class TestRunCampaign:
    def test_bit_reproducible(self):
        config = small_config()
        a = run_campaign(config)
        b = run_campaign(config)
        for name in COLUMNS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_record_shape(self):
        config = small_config()
        dataset = run_campaign(config)
        assert dataset.counts.shape == (1 * 2 * 5 * 2, len(LABELS))  # etas x phases x series x settings
        assert set(dataset.setting.tolist()) == {SETTINGS.index(Setting.QUARTER), SETTINGS.index(Setting.HALF)}
        assert dataset.eta.tolist() == [0.361] * 20
        assert dataset.phi_true.tolist() == [0.0] * 10 + [0.04] * 10  # rows run over (eta, phase, series, setting)

    def test_records_view(self):
        """``records`` is a read-only view whose items are built from the columns."""
        dataset = run_campaign(small_config(series_count=2))
        records = dataset.records
        assert len(records) == len(dataset.series_id) == 8
        rec = records[-1]
        assert (rec.eta, rec.probe, rec.phi_true, rec.setting, rec.series_id) == (
            0.361, ProbeKind.NOON, 0.04, Setting.HALF, 1
        )
        assert rec.counts == dict(zip(LABELS, dataset.counts[-1].tolist()))
        assert rec.seed_used == int(dataset.seed_used[-1])
        assert records[1:3] == [records[1], records[2]]
        with pytest.raises(IndexError):
            records[8]
        with pytest.raises(TypeError):
            records[0] = rec

    def test_lossless_noon_has_no_loss_counts(self):
        config = small_config(eta_list=(1.0,), series_count=10)
        dataset = run_campaign(config)
        assert not dataset.counts[:, [LABELS.index(label) for label in HALF_LABELS]].any()

    def test_subset_independence(self):
        """Any record only depends on its own substream key."""
        full = run_campaign(small_config(series_count=5))
        subset = run_campaign(small_config(series_count=3))

        def rows(dataset):
            keys = zip(dataset.eta.tolist(), dataset.phi_true.tolist(), dataset.setting.tolist(), dataset.series_id.tolist())
            return {key: (counts, seed) for key, counts, seed in zip(keys, dataset.counts.tolist(), dataset.seed_used.tolist())}

        full_rows = rows(full)
        for key, row in rows(subset).items():
            assert full_rows[key] == row

    def test_poissonize_changes_totals(self):
        fixed = run_campaign(small_config(poissonize_m=False, series_count=8))
        # all settings of one series sum to the drawn event count before thinning;
        # with fixed M and no thinning randomness removed we can only check bounds
        assert (fixed.counts.sum(axis=1) <= 400).all()

    def test_frequency_consistency(self):
        """Pooled post-thinning counts follow the model distribution."""
        config = ExperimentConfig(
            eta_list=(0.361,),
            probe_kind=ProbeKind.OPTIMAL,
            phase_list=(0.04,),
            series_count=300,
            events_per_series=2000,
            master_seed=77,
        )
        dataset = run_campaign(config)
        models = setting_models(ProbeKind.OPTIMAL, 0.361, ImperfectionParams())
        for setting in (Setting.QUARTER, Setting.HALF):
            probs = np.asarray(models[setting].probabilities(0.04), dtype=float)
            pooled = dataset.counts[dataset.setting == SETTINGS.index(setting)].sum(axis=0).astype(float)
            total = pooled.sum()
            # chi-square goodness of fit at the 1e-3 level
            chi2 = float(((pooled - total * probs) ** 2 / (total * probs)).sum())
            threshold = stats.chi2.ppf(1 - 1e-3, df=len(LABELS) - 1)
            assert chi2 < threshold
            # and every label within five standard errors
            for k in range(len(LABELS)):
                se = np.sqrt(total * probs[k] * (1 - probs[k]))
                assert abs(pooled[k] - total * probs[k]) < 5 * se


#: sha256 of ``write_dataset_csv`` output for small campaigns, recorded with the
#: per-record SeedSequence implementation that defined the substream layout.
#: Any change to the streams, the draw order or the CSV formatting breaks them.
PINNED_DATASETS = [
    (
        ExperimentConfig(
            eta_list=(0.4,),
            probe_kind=ProbeKind.OPTIMAL,
            phase_list=(-0.1, 0.0, 0.2),
            series_count=4,
            events_per_series=60,
            master_seed=2**40 + 7,
            imperfections=ImperfectionParams(epsilon=0.02, delta=0.1, lambda_hom=0.95, v_classical=0.97),
        ),
        "d4c9ad9e1d64ff44a521193794df9090ab409ebe43b0eae2c5721da46bd6593c",
    ),
    (
        ExperimentConfig(
            eta_list=(0.2, 0.547),
            probe_kind=ProbeKind.NOON,
            phase_list=(0.0, 0.06),
            series_count=3,
            events_per_series=41,
            master_seed=123,
            poissonize_m=False,
        ),
        "ac72e5191c2c0d472f9c777ca1fcbc35d3ba4a8b796fe6ce2756e1c89fdfdbbd",
    ),
    (
        # one event per series on average: many records draw m = 0
        ExperimentConfig(
            eta_list=(0.361,),
            probe_kind=ProbeKind.NOON,
            phase_list=(-0.02, 0.0),
            series_count=6,
            events_per_series=1,
            master_seed=2**64 - 1,
        ),
        "ab2cd7c217a47ef9819a75953321f71ad49b544cf2e6004e2c7e74150383cf79",
    ),
]


class TestPinnedDatasets:
    @pytest.mark.parametrize(
        "config, digest", PINNED_DATASETS, ids=["optimal-imperfect", "noon-fixed-m", "noon-one-event"]
    )
    def test_dataset_hash(self, config, digest, tmp_path):
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, run_campaign(config))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_records_match_record_rng(self):
        """Bulk-seeded rows equal a per-record replay through record_rng,
        sample_counts and the thinning's scalar draws in their defined order."""
        config = PINNED_DATASETS[0][0]
        dataset = run_campaign(config)
        models = setting_models(config.probe_kind, 0.4, config.imperfections)
        for row in range(0, len(dataset.series_id), 5):
            eta_index = config.eta_list.index(dataset.eta[row])
            phase_index = config.phase_list.index(dataset.phi_true[row])
            series_id, setting = int(dataset.series_id[row]), SETTINGS[dataset.setting[row]]
            rng_m, _ = record_rng(config.master_seed, eta_index, phase_index, series_id, 2)
            m_total = int(rng_m.poisson(config.events_per_series))
            m = m_total // 2 if setting is Setting.QUARTER else m_total - m_total // 2
            stream = 0 if setting is Setting.QUARTER else 1
            rng, seed_used = record_rng(config.master_seed, eta_index, phase_index, series_id, stream)
            phi = config.phase_list[phase_index]
            dist = dict(zip(LABELS, models[setting].probabilities(phi)))
            drawn = sample_counts(dist, m, rng)
            counts = {label: int(rng.binomial(drawn[label], 0.5)) for label in ("AA", "BB", "CC", "AB", "AC", "BC")}
            row_counts = dict(zip(LABELS, dataset.counts[row].tolist()))
            assert (row_counts, int(dataset.seed_used[row])) == (counts, seed_used)
