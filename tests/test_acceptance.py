"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import math

import numpy as np
import pytest

from lossyphase.bounds import (
    NOON_WEIGHTS,
    ProbeWeights,
    _qfi_surface,
    noon_precision,
    optimize_weights,
    precision_curve,
    qfi_lossy,
    sil_precision,
)
from lossyphase.cli import main
from lossyphase.detection import (
    LABELS,
    DetectionConfig,
    OutcomeModel,
    Setting,
    optimize_theta_d,
)
from lossyphase.estimator import analyze, estimate_dataset, histogram
from lossyphase.fock import FockState, apply_loss, apply_transform, beam_splitter
from lossyphase.montecarlo import ExperimentConfig, ProbeKind, probe_designs, run_campaign, setting_models
from lossyphase.prep import prepare, solve_prep
from oracles import classical_fisher, phase_shift, probe_state, sil_precision_numeric

EXPERIMENT_ETAS = (0.2, 0.361, 0.4, 0.547)
HALF_BALANCED = DetectionConfig(Setting.HALF, 0.5)


def _verdict(number, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number:02d} {name}{suffix}")
    assert ok, f"criterion {number} {name}{suffix}"


def test_criterion_01_conditional_states():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        x0, x1, x2 = rng.dirichlet([1.0, 1.0, 1.0])
        eta = rng.uniform(0.02, 0.98)
        state = probe_state(ProbeWeights(x0, x1, x2))
        branches = {b.lost_count: b for b in apply_loss(state, 0, eta)}
        b0, b1 = branches[0], branches[1]
        s0, s1 = math.sqrt(b0.probability), math.sqrt(b1.probability)
        errors = [
            abs(b0.state.amplitude((2, 0)) * s0 - eta * math.sqrt(x2)),
            abs(b0.state.amplitude((1, 1)) * s0 - math.sqrt(eta * x1)),
            abs(b0.state.amplitude((0, 2)) * s0 + math.sqrt(x0)),
            abs(b1.state.amplitude((1, 0)) * s1 - math.sqrt(2 * eta * (1 - eta) * x2)),
            abs(b1.state.amplitude((0, 1)) * s1 - math.sqrt((1 - eta) * x1)),
        ]
        worst = max(worst, max(errors))
    _verdict(1, "loss-channel conditional states", worst < 1e-12, f"worst error {worst:.2e}")


def test_criterion_02_noon_limits():
    f_noon = qfi_lossy(NOON_WEIGHTS, 1.0)
    dphi = noon_precision(1.0)
    ok = abs(f_noon - 4.0) < 1e-12 and abs(dphi - 0.5) < 1e-12
    _verdict(2, "lossless N00N reaches the Heisenberg limit", ok, f"F={f_noon!r}, dphi={dphi!r}")


def test_criterion_03_curve_dominance():
    grid = np.round(np.arange(0.01, 1.0001, 0.01), 10)
    points = precision_curve(grid)
    weak = all(p.dphi_optimal <= min(p.dphi_noon, p.dphi_sil) + 1e-9 for p in points)
    strict = all(
        p.dphi_optimal < min(p.dphi_noon, p.dphi_sil) - 1e-9
        for p in points
        if 0.2 <= p.eta <= 0.9
    )
    _verdict(3, "optimal curve dominates N00N and SIL", weak and strict)


def test_criterion_04_preparation_round_trip():
    worst_w = 0.0
    worst_p = 0.0
    for eta in EXPERIMENT_ETAS:
        target, _ = optimize_weights(eta)
        cfg = solve_prep(target)
        state, success = prepare(cfg.theta1, cfg.theta2, cfg.attenuated_arm)
        worst_p = max(worst_p, abs(success - state.norm_sq()), abs(success - cfg.success_prob))
        normalized = state.normalize()
        got = (
            abs(normalized.amplitude((0, 2))) ** 2,
            abs(normalized.amplitude((1, 1))) ** 2,
            abs(normalized.amplitude((2, 0))) ** 2,
        )
        worst_w = max(worst_w, max(abs(g - t) for g, t in zip(got, target.as_tuple())))
    ok = worst_w < 1e-9 and worst_p < 1e-12
    _verdict(4, "preparation network round trip", ok, f"weights {worst_w:.2e}, prob {worst_p:.2e}")


def test_criterion_05_crb_saturation():
    worst = 0.0
    for kind in (ProbeKind.OPTIMAL, ProbeKind.NOON):
        for eta in EXPERIMENT_ETAS:
            if kind is ProbeKind.NOON:
                weights, fisher = NOON_WEIGHTS, qfi_lossy(NOON_WEIGHTS, eta)
            else:
                weights, fisher = optimize_weights(eta)
            probe = probe_state(weights)
            (quarter,) = optimize_theta_d([probe], [eta])
            models = {Setting.QUARTER: OutcomeModel(probe, eta, quarter), Setting.HALF: OutcomeModel(probe, eta, HALF_BALANCED)}
            worst = max(worst, abs(classical_fisher(models, 0.0) - fisher) / fisher)
    _verdict(5, "detection saturates the Cramér-Rao bound at zero phase", worst < 1e-6, f"worst rel {worst:.2e}")


def test_criterion_06_fringe_doubling():
    probe = probe_state(NOON_WEIGHTS)
    (quarter,) = optimize_theta_d([probe], [0.361])
    phis = np.linspace(-math.pi, math.pi, 257)
    worst = 0.0
    for config in (quarter, HALF_BALANCED):
        model = OutcomeModel(probe, 0.361, config)
        kept = [LABELS.index(label) for label in config.setting.kept_labels]
        base, shifted = model.probabilities(phis)[:, kept], model.probabilities(phis + math.pi)[:, kept]
        worst = max(worst, float(np.max(np.abs(base - shifted))))
    _verdict(6, "N00N coincidence fringes are pi-periodic", worst < 1e-12, f"worst {worst:.2e}")


def test_criterion_07_end_to_end_efficiency():
    """Campaign at the five phases 0, +-0.2, +-0.4: rescaled uncertainty
    against the bound of the measurement actually simulated, pooled per
    (probe, eta), plus the optimal-vs-N00N ordering.

    The detection settings are fixed at the zero-phase operating point, so
    the Fisher information F_C(phi) of the two-setting measurement drops away
    from zero phase and the reference for each group is the phase-local bound
    1/sqrt(F_C(phi_true)). At phi = 0 it equals the ``crb`` column, the
    zero-phase quantum bound (criterion 5); this is asserted here. At the
    outer phases it lies above ``crb`` by up to a factor 1.38 (N00N,
    eta = 0.2, phi = +-0.4) and 1.06 for the optimal probe, so every group is
    reported against both bounds, exactly as measured.

    The sample deviation of 300 series carries about 4.1 percent relative
    noise (1/sqrt(598)), so the band applies to the mean ratio over the five
    phases of each (probe, eta), as in test_efficiency_band_all_groups. Even
    an exactly efficient estimator would keep all 40 single groups inside the
    band in only about 0.6 percent of runs.

    Known finite-sample excess: for N00N at eta = 0.2, phi = +-0.4 the local
    ratio averages 1.14 over seeds 0-11 at 2000 events. Estimates reach the
    fringe turning point pi/4, where F_C = 0, and their distribution is
    skewed (|skewness| 0.6-1.0). At 8000 events the average falls to 1.05.
    This excess makes the N00N eta = 0.2 pool the closest to the upper edge:
    1.085 at seed 0, 1.05-1.11 over seeds 0-11.
    """
    phases = (0.0, 0.2, -0.2, 0.4, -0.4)
    reports = {}
    local_crb = {}
    for kind in (ProbeKind.OPTIMAL, ProbeKind.NOON):
        config = ExperimentConfig(
            probe_kind=kind,
            phase_list=phases,
            series_count=300,
            events_per_series=2000,
            master_seed=0,
        )
        dataset = run_campaign(config)
        reports[kind] = analyze(estimate_dataset(dataset))
        designs = probe_designs(kind, config.eta_list, config.imperfections)
        for eta, design in zip(config.eta_list, designs):
            models = setting_models(eta, config.imperfections, design)
            for phi in phases:
                local_crb[(kind, eta, phi)] = 1.0 / math.sqrt(classical_fisher(models, phi))
    crb_mismatch = []
    pooled = {}
    group_text = {}
    for kind, rows in reports.items():
        for row in rows:
            zero_phase = local_crb[(kind, row.eta, 0.0)]
            if abs(zero_phase - row.crb) / row.crb >= 1e-6:
                crb_mismatch.append(f"{kind.value}/eta={row.eta}: {zero_phase!r} vs crb {row.crb!r}")
            ratio = row.sigma_scaled / local_crb[(kind, row.eta, row.phi_true)]
            pooled.setdefault((kind, row.eta), []).append(ratio)
            group_text.setdefault((kind, row.eta), []).append(
                f"{row.phi_true:+.1f} {ratio:.3f}/{row.sigma_scaled / row.crb:.3f}"
            )
    pooled = {key: float(np.mean(ratios)) for key, ratios in pooled.items()}
    out_of_band = [key for key, ratio in pooled.items() if not 0.95 <= ratio <= 1.10]
    ordering_ok = True
    for eta in EXPERIMENT_ETAS:
        opt = np.mean([r.sigma_scaled for r in reports[ProbeKind.OPTIMAL] if r.eta == eta])
        noon = np.mean([r.sigma_scaled for r in reports[ProbeKind.NOON] if r.eta == eta])
        ordering_ok = ordering_ok and opt < noon
    pools = "; ".join(
        f"{kind.value}/eta={eta} pooled {ratio:.3f}"
        f"{' OUT' if (kind, eta) in out_of_band else ''}"
        f" [phi local/zero-phase: {', '.join(group_text[(kind, eta)])}]"
        for (kind, eta), ratio in pooled.items()
    )
    detail = (
        f"ordering {'ok' if ordering_ok else 'violated'}; "
        f"local bound at phi=0 vs crb: {'; '.join(crb_mismatch) if crb_mismatch else 'match'}; {pools}"
    )
    ok = ordering_ok and not crb_mismatch and not out_of_band
    _verdict(7, "end-to-end efficiency against the phase-local bound", ok, detail)


def test_criterion_08_histogram_separability():
    overlaps = {}
    means_ok = True
    for kind in (ProbeKind.OPTIMAL, ProbeKind.NOON):
        config = ExperimentConfig(
            eta_list=(0.361,),
            probe_kind=kind,
            phase_list=(-0.06, 0.06),
            series_count=300,
            events_per_series=2000,
            master_seed=5,
        )
        estimates = estimate_dataset(run_campaign(config))
        phi_true = estimates.dataset.phi_true[estimates.row]
        low = estimates.phi_hat[phi_true == -0.06]
        high = estimates.phi_hat[phi_true == 0.06]
        separation = float(np.mean(high) - np.mean(low))
        if kind is ProbeKind.OPTIMAL:
            means_ok = abs(separation - 0.12) < 0.01
        bounds = (-0.51, 0.51)
        _, h_low = histogram(low, 0.01, bounds=bounds)
        _, h_high = histogram(high, 0.01, bounds=bounds)
        overlaps[kind] = float(np.minimum(h_low / len(low), h_high / len(high)).sum())
    ok = means_ok and overlaps[ProbeKind.OPTIMAL] < overlaps[ProbeKind.NOON]
    detail = (
        f"overlap optimal {overlaps[ProbeKind.OPTIMAL]:.3f} vs noon {overlaps[ProbeKind.NOON]:.3f}"
    )
    _verdict(8, "phase histograms separate as in the two-phase probing", ok, detail)


def test_criterion_09_determinism(tmp_path):
    config_text = (
        "eta_list = 0.361\nprobe = optimal\nphases = -0.02, 0.0, 0.02\n"
        "series = 10\nevents = 400\nseed = 123\n"
    )
    config_path = tmp_path / "c.cfg"
    config_path.write_text(config_text)
    outputs = []
    for name in ("one", "two"):
        sim = tmp_path / name / "sim"
        est = tmp_path / name / "est"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
        assert main(["estimate", "--dataset", str(sim / "dataset.csv"), "--out-dir", str(est)]) == 0
        outputs.append(
            (
                (sim / "dataset.csv").read_bytes(),
                (est / "estimates.csv").read_bytes(),
                (est / "report.csv").read_bytes(),
            )
        )
    ok = outputs[0] == outputs[1]
    _verdict(9, "identical config and seed give byte-identical outputs", ok)


def _simplex_scan(eta, step=1e-3):
    best = -1.0
    n = int(round(1.0 / step))
    for i in range(n + 1):
        x0 = i * step
        x1 = np.arange(0.0, 1.0 - x0 + step / 2.0, step)
        x2 = np.clip(1.0 - x0 - x1, 0.0, 1.0)
        best = max(best, float(_qfi_surface(np.full_like(x1, x0), x1, x2, eta).max()))
    return best


def test_criterion_10_oracle_equivalences():
    # optimizer versus brute-force simplex scan: the optimizer must dominate
    # the grid, and may exceed it only by the grid's own quantization gap,
    # bounded by max|Hessian| * (step * sqrt(2)/2)^2 / 2 ~ 1.5e-6 for step 1e-3
    # (the measured gap reaches 1.5e-6, so the comparison tolerance is 5e-6).
    opt_ok = True
    opt_detail = []
    for eta in EXPERIMENT_ETAS:
        _, f_max = optimize_weights(eta)
        scan = _simplex_scan(eta)
        opt_ok = opt_ok and (f_max >= scan - 1e-9) and (f_max - scan < 5e-6)
        opt_detail.append(f"{eta}: {f_max - scan:+.2e}")

    sil_ok = True
    for eta in np.arange(0.05, 1.0001, 0.05):
        for n in (1.0, 2.0, 4.0):
            if abs(sil_precision(float(eta), n) - sil_precision_numeric(float(eta), n)) >= 1e-8:
                sil_ok = False

    # apply_transform versus the permanent-based brute force
    from test_fock import brute_force_transform

    rng = np.random.default_rng(10)
    transform_ok = True
    for _ in range(25):
        n_modes = int(rng.integers(2, 4))
        patterns = [p for p in itertools.product(range(3), repeat=n_modes) if sum(p) == 2]
        raw = rng.normal(size=len(patterns)) + 1j * rng.normal(size=len(patterns))
        raw /= np.linalg.norm(raw)
        state = FockState(n_modes, dict(zip(patterns, raw)))
        mat = np.eye(n_modes, dtype=complex)
        for _ in range(4):
            i, j = rng.choice(n_modes, size=2, replace=False)
            mat = beam_splitter(rng.uniform(), int(i), int(j), n_modes).matrix @ mat
            mat = phase_shift(rng.uniform(-3, 3), int(rng.integers(n_modes)), n_modes).matrix @ mat
        out = apply_transform(state, __import__("lossyphase.fock", fromlist=["ModeTransform"]).ModeTransform(n_modes, mat))
        expected = brute_force_transform(state, mat)
        for key in set(out.amplitudes) | set(expected):
            if abs(out.amplitude(key) - expected.get(key, 0j)) >= 1e-10:
                transform_ok = False

    ok = opt_ok and sil_ok and transform_ok
    _verdict(
        10,
        "oracle equivalences (optimizer, SIL, transform)",
        ok,
        f"optimizer-scan gaps {', '.join(opt_detail)}",
    )
