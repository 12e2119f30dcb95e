"""Protocol Monte-Carlo: reference vs batch agreement, bookkeeping invariants, baselines."""

import concurrent.futures
import dataclasses
import json
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from symsense import protocols
from symsense.cli import write_summary_csv, write_trajectories_jsonl
from symsense.codes import GnuParams, Label, code_fits, logical_pair, make_logical
from symsense.metrology import fi_phase_readout
from symsense.noise import delete
from symsense.protocols import (
    BatchResult,
    ProtocolConfig,
    baselines,
    expected_fi_p1,
    parse_threads,
    run_protocol1,
    run_protocol1_batch,
    run_protocol2,
    run_protocol3,
    trajectory_rng,
)
from symsense.qec import (
    code_frame,
    pflag_closed_form,
    project_syndrome,
    q_vectors,
    zeta,
    zeta_derivative,
)
from symsense.symcore import SymState, apply_signal, signal_phases
from symsense.verify import protocol1_mismatches


def small_config(seed=42, n_del=2e-3, theta=5e-3, r=12, n=3) -> ProtocolConfig:
    g, N = 8, 200
    s = (N - g * n) // 2
    params = GnuParams(g, n, Fraction(N - s, g * n), s)
    return ProtocolConfig(params, r=r, q=1.2, theta=theta, n_del=n_del, seed=seed)


# an N = 16 code that aborts rows by every cause: flags, and runs that fall
# below half the qubits before the code runs out of room
N16_ALL_CAUSES = ProtocolConfig(
    GnuParams(2, 3, Fraction(10, 6), 6), r=40, q=1.0, theta=1e-3, n_del=0.5, seed=2
)
# an N = 16 code that deletions shrink until it no longer fits
N16_REGIME = ProtocolConfig(
    GnuParams(2, 3, Fraction(11, 6), 5), r=40, q=1.0, theta=1e-3, n_del=0.5, seed=1
)
# N = 60 at a large signal per round (x ~ 0.6, so syn = 1 is common) and a high
# deletion rate, which exercises the recovery paths
HIGH_NOISE = ProtocolConfig(
    GnuParams(4, 3, Fraction(3), 24), r=8, q=1.0, theta=0.3 * 8, n_del=0.05, seed=77
)


def test_config_accepts_odd_n_and_rejects_the_rest():
    for n in (5, 7):
        assert ProtocolConfig(GnuParams(8, n, Fraction(5), 0), r=4, q=1.5, theta=0.01, n_del=0.0)
    for n in (1, 4, 6):
        with pytest.raises(ValueError, match=f"odd n >= 3, got n = {n}"):
            ProtocolConfig(GnuParams(8, n, Fraction(5), 0), r=4, q=1.5, theta=0.01, n_del=0.0)


def test_noiseless_zero_signal_trajectory():
    cfg = small_config(n_del=0.0, theta=0.0)
    rec = run_protocol1(cfg, trajectory_rng(cfg.seed, 0))
    assert not rec.flag
    assert rec.Phi == 0.0
    assert rec.counts[0, 0] == cfg.r  # all rounds syn=0, no deletions
    assert abs(rec.final_amp_a - 1 / math.sqrt(2)) < 1e-12


def test_noiseless_phase_accumulation():
    # without deletions every round contributes zeta_0 (syn=1 is ~1e-9 here)
    from symsense.qec import zeta

    cfg = small_config(n_del=0.0)
    rec = run_protocol1(cfg, trajectory_rng(cfg.seed, 1))
    want = cfg.r * zeta(cfg.params, cfg.delta, 0)
    assert rec.counts[0, 0] == cfg.r
    assert abs(rec.Phi - want) < 1e-15 + 1e-9 * abs(want)


def test_reference_and_batch_agree_trajectorywise():
    flagged = invalid = 0
    for cfg in (small_config(), N16_ALL_CAUSES):
        batch = run_protocol1_batch(cfg, 40)
        assert not protocol1_mismatches(batch, range(40))
        flagged += batch.flag.sum()
        invalid += batch.invalid.sum()
    assert flagged > 0 and invalid > 0


def test_phase_bookkeeping_matches_tracked_state():
    # the accumulated per-round analytic phases reproduce the exact state's
    # relative phase (flag-free trajectories)
    cfg = small_config(n_del=4e-3, theta=8e-3)
    checked = 0
    for idx in range(30):
        rec = run_protocol1(cfg, trajectory_rng(cfg.seed, idx))
        if rec.flag or rec.invalid_regime:
            continue
        wrapped = (rec.Phi - rec.state_phase + math.pi) % (2 * math.pi) - math.pi
        assert abs(wrapped) < 1e-8
        checked += 1
    assert checked > 10


def test_batch_phase_vs_state_phase():
    # the batch carries only the weights |a|^2, |b|^2 and sums Phi from the
    # analytic increments; the reference tracks the full state
    batch = run_protocol1_batch(small_config(n_del=3e-3), 60)
    assert not protocol1_mismatches(batch, range(60))


def test_amplitude_drift_bounded_per_trajectory():
    cfg = small_config(n_del=5e-3)
    batch = run_protocol1_batch(cfg, 300)
    p = cfg.params
    bound_per_del = 12.0 * p.g * math.sqrt(p.n) / (p.n_qubits - 3)
    ok = batch.success
    drift = np.abs(batch.final_amp_a[ok] - 1 / math.sqrt(2))
    assert np.all(drift <= batch.n_deletions[ok] * bound_per_del + 1e-12)


def test_failure_rate_below_bound_sweep():
    # empirical abort probability stays below the union bound (3 sigma slack)
    for seed, n_del, r in ((1, 1e-3, 8), (2, 4e-3, 12), (3, 8e-3, 6), (4, 2e-3, 16), (5, 6e-3, 10)):
        cfg = small_config(seed=seed, n_del=n_del, r=r)
        n_traj = 4000
        batch = run_protocol1_batch(cfg, n_traj)
        emp = batch.failure_rate()
        bound = cfg.failure_bound()
        sigma = math.sqrt(max(emp * (1 - emp), 1e-12) / n_traj)
        assert emp <= bound + 3 * sigma, (seed, emp, bound)


def test_dphi_matches_matched_randomness_finite_difference():
    # rerun the same trajectory at theta +- h (common random numbers) and
    # compare the accumulated analytic derivative to (Phi+ - Phi-)/2h
    cfg = small_config(n_del=3e-3)
    h = 1e-6
    cfg_p = ProtocolConfig(cfg.params, cfg.r, cfg.q, cfg.theta + h, cfg.n_del, cfg.seed)
    cfg_m = ProtocolConfig(cfg.params, cfg.r, cfg.q, cfg.theta - h, cfg.n_del, cfg.seed)
    checked = 0
    for idx in range(40):
        rec = run_protocol1(cfg, trajectory_rng(cfg.seed, idx))
        rec_p = run_protocol1(cfg_p, trajectory_rng(cfg.seed, idx))
        rec_m = run_protocol1(cfg_m, trajectory_rng(cfg.seed, idx))
        if any(r.flag or r.invalid_regime for r in (rec, rec_p, rec_m)):
            continue
        if not (np.array_equal(rec.counts, rec_p.counts) and np.array_equal(rec.counts, rec_m.counts)):
            continue  # a threshold crossed under the theta shift; skip
        fd = (rec_p.Phi - rec_m.Phi) / (2 * h)
        assert fd == pytest.approx(rec.dPhi_dtheta, rel=1e-4)
        checked += 1
    assert checked >= 20


def test_expected_fi_matches_monte_carlo_mid_size():
    # condition both sides on the zero-syn1 sector (the syn = 1 spike sector
    # is exercised at scale in the acceptance suite); what remains is the
    # deletion-pair amplitude/prefactor physics
    cfg = small_config(seed=11, n_del=2e-3, theta=5e-3, r=12)
    ana = expected_fi_p1(cfg, include_nodel_syn1=False, max_total_syn1=0)
    batch = run_protocol1_batch(cfg, 30000)
    sector = batch.success & (batch.counts[:, :, 1].sum(axis=1) == 0)
    mc = float(batch.fisher_information[sector].mean())
    assert mc == pytest.approx(ana["mean_fi"], rel=0.15)


def test_protocol2_composition():
    cfg = small_config(seed=9, n_del=1e-3)
    res = run_protocol2(cfg, n_traj=500)
    reps = float(cfg.r) ** (cfg.q - 1.0)
    assert res["repetitions"] == pytest.approx(reps)
    assert res["fi_p2"] == pytest.approx(
        reps * (1 - res["failure_rate"]) * res["mean_fi_p1"], rel=1e-12
    )


def test_protocol2_weights_by_the_success_rate():
    # invalid-regime rows are failures too: the repetition succeeds only on rows mean_fi averages
    batch = run_protocol1_batch(N16_ALL_CAUSES, 400)
    assert batch.invalid.any() and batch.flag.any()
    res = run_protocol2(N16_ALL_CAUSES, n_traj=400)
    assert res["fi_p2"] == pytest.approx(batch.success.mean() * batch.mean_fi(), rel=1e-12)
    assert res["failure_rate"] == pytest.approx(1.0 - batch.success.mean(), rel=1e-12)


def test_mean_fi_is_nan_when_no_row_succeeds():
    params = GnuParams(8, 3, Fraction(22, 3), 12)
    batch = run_protocol1_batch(ProtocolConfig(params, 32, 1.5, 0.01, 1000.0, seed=1), 20)
    assert not batch.success.any()
    assert math.isnan(batch.mean_fi()) and math.isnan(batch.se_fi())


def test_protocol3_iterations():
    cs = run_protocol3(0.5, 1, Fraction(3, 2), 0, 0)
    assert cs[0] == Fraction(1, 2)
    assert cs[1] == Fraction(11, 18)
    cs = run_protocol3(0.5, 40, Fraction(3, 2), 0, 0)
    assert all(b > a for a, b in zip(cs, cs[1:]))
    assert abs(float(cs[-1]) - 1.0) < 1e-3  # Heisenberg fixed point
    cs_err = run_protocol3(0.5, 150, Fraction(3, 2), Fraction(1, 10), Fraction(1, 10))
    assert float(cs_err[-1]) < 1.0
    assert abs(float(cs_err[-1]) - float(cs_err[-2])) < 1e-12  # converged strictly below 1


def test_baselines():
    snl, ghz = baselines(1000, 1.0, 1.5, 0.0)
    assert snl == 1.0 and ghz == 0.0
    _, ghz = baselines(1000, 0.0, 1.0, 0.3)
    assert ghz == 2.0
    # the LP shot-noise row is the SNL comparison with duration exponent
    # 1 - q, i.e. the gamma_rounds = 1 point of the baseline formula:
    # 6a - 4c + (2-6q)g > 1 + 2(1-q)  <=>  a > 2c/3 + (q-1/3)g + 1/2 - q/3
    rng = np.random.default_rng(0)
    snl_fixed = lambda q: baselines(1000, 1.0, q, 1.0)[0]
    for _ in range(50):
        q, c = rng.uniform(1, 2), rng.uniform(0, 0.5)
        alpha, gamma = rng.uniform(0, 1.2), rng.uniform(0, 0.8)
        fi_exp = 6 * alpha - 4 * c + (2 - 6 * q) * gamma
        lhs_beats = fi_exp > snl_fixed(q)
        constraint = alpha > 2 * c / 3 + (q - 1 / 3) * gamma + 1 / 2 - q / 3
        assert lhs_beats == constraint


def test_export_roundtrip(tmp_path):
    cfg = small_config(seed=4)
    batch = run_protocol1_batch(cfg, 50)
    jsonl = tmp_path / "traj.jsonl"
    write_trajectories_jsonl([batch], jsonl)
    import json

    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(lines) == 50
    assert lines[3]["index"] == 3
    csv_path = tmp_path / "summary.csv"
    write_summary_csv(batch, csv_path)
    text = csv_path.read_text()
    assert "mean_FI" in text and str(cfg.params.g) in text


BATCH_ARRAYS = (
    "flag",
    "invalid",
    "counts",
    "Phi",
    "dPhi_dtheta",
    "final_amp_a",
    "fisher_information",
    "n_deletions",
    "final_shift",
)


def assert_same_bits(got: BatchResult, want: BatchResult):
    """Every array of ``got`` equals ``want``'s as bytes, so that the NaN of aborted rows compares equal."""
    for name in BATCH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def test_batch_parallel_matches_serial(monkeypatch):
    cfg = small_config(seed=5, n_del=3e-3, r=10)
    whole = run_protocol1_batch(cfg, 300)  # one span
    monkeypatch.setattr(protocols, "BATCH_SPAN", 64)  # spans of 64, the last one short
    serial = run_protocol1_batch(cfg, 300)
    monkeypatch.setenv("SYMSENSE_THREADS", "2")
    parallel = run_protocol1_batch(cfg, 300)
    assert serial.success.sum() < 300 and serial.n_deletions.any()
    assert_same_bits(serial, whole)
    assert_same_bits(parallel, whole)


@pytest.mark.parametrize(
    "seed, lo, hi",
    [
        (7, protocols.BATCH_SPAN - 3, protocols.BATCH_SPAN + 3),  # straddles a span boundary
        (7, 2**33 + 3, 2**33 + 8),
        (2**40 + 3, 0, 4),
        (2**40 + 3, 2**33 + 5, 2**33 + 6),
        # the top key words, which the span's plain-int Philox key must carry exactly
        (2**63, 2**64 - 4, 2**64),
        (2**64 - 1, 0, 3),
        (2**64 - 1, 2**63 - 1, 2**63 + 2),
    ],
)
def test_span_uniforms_match_trajectory_rng(seed, lo, hi):
    for r in (1, 5, 32):
        block = protocols._span_uniforms(seed, lo, hi, r)
        assert block.shape == (hi - lo, r, 3)
        for j, index in enumerate(range(lo, hi)):
            assert np.array_equal(block[j], trajectory_rng(seed, index).random((r, 3))), (r, index)


def test_batch_rejects_empty_run_before_any_work(monkeypatch):
    def no_span(config, lo, hi):
        raise AssertionError("a span ran")

    monkeypatch.setattr(protocols, "_run_batch_span", no_span)
    for n_traj in (0, -3):
        with pytest.raises(ValueError, match="n_traj"):
            run_protocol1_batch(small_config(), n_traj)


def _jsonl_reference(batch: BatchResult) -> str:
    """The exporter's format, spelled out row by row with json.dumps."""
    lines = []
    for i in range(batch.flag.size):
        row = {
            "index": i,
            "flag": bool(batch.flag[i]),
            "invalid_regime": bool(batch.invalid[i]),
            "counts": batch.counts[i].tolist(),
            "Phi": float(batch.Phi[i]),
            "dPhi_dtheta": float(batch.dPhi_dtheta[i]),
            "final_amp_a": float(batch.final_amp_a[i]),
            "fisher_information": float(batch.fisher_information[i]),
            "n_deletions": int(batch.n_deletions[i]),
            "final_shift": int(batch.final_shift[i]),
        }
        lines.append(json.dumps(row) + "\n")
    return "".join(lines)


def test_jsonl_matches_per_row_json_dumps(tmp_path, monkeypatch):
    batch = run_protocol1_batch(small_config(seed=8, n_del=4e-3), 40)
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, -1e22, 1e16, 0.1]
    for j, name in enumerate(("Phi", "dPhi_dtheta", "final_amp_a", "fisher_information")):
        col = getattr(batch, name)
        col[j : j + len(specials)] = specials
        col[30:] = col[0]  # repeated values share one spelling
    batch.flag[::3] = True
    monkeypatch.setattr(protocols, "BATCH_SPAN", 7)  # several chunks
    path = tmp_path / "traj.jsonl"
    write_trajectories_jsonl([batch], path)
    assert path.read_text() == _jsonl_reference(batch)

    # integer fields far outside a run's: invalid rows, counts and deletions up to 10^6 (a
    # mixed-radix key over their raw ranges would pass int64), negative and int64-extreme shifts
    rng = np.random.default_rng(8)
    batch.invalid[1::4] = True
    batch.counts[:] = rng.integers(0, 10**6, size=batch.counts.shape, endpoint=True)
    batch.counts[20:27] = batch.counts[20]  # one head repeated across a chunk
    batch.n_deletions[:] = rng.integers(0, 10**6, size=batch.n_deletions.size, endpoint=True)
    batch.final_shift[:] = rng.integers(-50, 3, size=batch.final_shift.size)
    batch.final_shift[:2] = (-(2**63), 2**63 - 1)
    assert batch.invalid.any() and (batch.final_shift < 0).any() and batch.counts.max() > 9 * 10**5
    write_trajectories_jsonl([batch], path)
    assert path.read_text() == _jsonl_reference(batch)

    # a span whose rows are all identical
    same = dataclasses.replace(
        batch, **{name: np.repeat(getattr(batch, name)[3:4], 40, axis=0) for name in BATCH_ARRAYS}
    )
    write_trajectories_jsonl([same], path)
    assert path.read_text() == _jsonl_reference(same)


def test_jsonl_keeps_apart_rows_that_differ_in_one_field(tmp_path):
    # one row, then copies of it that each differ from it in one field: every flag and
    # count, and each float by one ulp and by its sign
    base = run_protocol1_batch(small_config(seed=8), 1)
    changes = [("flag", ~base.flag), ("invalid", ~base.invalid),
               ("n_deletions", base.n_deletions + 1), ("final_shift", base.final_shift - 1)]
    for k in range(4):
        counts = base.counts.copy()
        counts.reshape(-1)[k] += 1
        changes.append(("counts", counts))
    for name in ("Phi", "dPhi_dtheta", "final_amp_a", "fisher_information"):
        col = getattr(base, name)
        assert col[0] != 0.0
        changes += [(name, np.nextafter(col, np.inf)), (name, -col)]
    rows = [base] + [dataclasses.replace(base, **{name: value}) for name, value in changes]
    batch = BatchResult.concatenate(rows, base.config)
    path = tmp_path / "traj.jsonl"
    write_trajectories_jsonl([batch], path)
    text = path.read_text()
    assert text == _jsonl_reference(batch)
    assert len({line.split(", ", 1)[1] for line in text.splitlines()}) == len(rows)


def test_jsonl_rejects_an_empty_span_stream_and_leaves_no_file(tmp_path):
    path = tmp_path / "traj.jsonl"
    with pytest.raises(ValueError, match="span stream is empty"):
        write_trajectories_jsonl([], path)
    assert list(tmp_path.iterdir()) == []
    path.write_text("kept\n")
    with pytest.raises(ValueError, match="span stream is empty"):
        write_trajectories_jsonl(iter(()), path)
    assert list(tmp_path.iterdir()) == [path] and path.read_text() == "kept\n"


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_parse_threads_defaults_and_clamps():
    cpus = _usable_cpus()
    assert parse_threads(None) == cpus
    assert parse_threads("1") == 1
    assert parse_threads(str(cpus)) == cpus
    assert parse_threads("1000000") == cpus
    assert parse_threads(str(10**30)) == cpus


def test_one_usable_cpu_runs_serially(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.delenv("SYMSENSE_THREADS", raising=False)
    assert parse_threads(None) == 1
    assert parse_threads("8") == 1

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(protocols, "BATCH_SPAN", 64)  # several spans
    assert run_protocol1_batch(small_config(seed=5, r=4), 300).flag.size == 300


@pytest.mark.parametrize("raw", ["0", "-3", "", "two", "2.5", "1e3"])
def test_parse_threads_rejects_bad_values(raw):
    with pytest.raises(ValueError, match="SYMSENSE_THREADS"):
        parse_threads(raw)


def test_batch_rejects_bad_thread_count_before_any_work(monkeypatch):
    monkeypatch.setenv("SYMSENSE_THREADS", "0")
    with pytest.raises(ValueError, match="SYMSENSE_THREADS"):
        run_protocol1_batch(small_config(), 300)


def test_expected_fi_zero_signal_and_homogeneity():
    # without deletions the per-round phase is cubic in theta, so F(0) = 0
    # (its closed-form derivative vanishes there exactly)
    cfg0 = small_config(n_del=0.0, theta=0.0)
    assert expected_fi_p1(cfg0)["mean_fi"] < 1e-20
    # with deletions the exact one-deletion phase has a *linear* theta
    # response (epsilon-component projection), so the readout keeps a small
    # but genuinely nonzero sensitivity even at theta = 0
    cfg_del = small_config(n_del=1e-3, theta=0.0)
    assert 0.0 < expected_fi_p1(cfg_del)["mean_fi"] < 1e-6
    # the closed-form leading term is degree 6 in g
    cfg = small_config(n_del=0.0)
    g2, n, N2 = 16, 3, 400
    s2 = (N2 - g2 * n) // 2
    cfg_double = ProtocolConfig(
        GnuParams(g2, n, Fraction(N2 - s2, g2 * n), s2),
        r=cfg.r, q=cfg.q, theta=cfg.theta, n_del=0.0, seed=cfg.seed,
    )
    a, b = expected_fi_p1(cfg), expected_fi_p1(cfg_double)
    assert b["r2_formula_stated"] / a["r2_formula_stated"] == pytest.approx(64.0)
    assert b["r2_formula_quarter"] / a["r2_formula_quarter"] == pytest.approx(64.0)


def test_expected_fi_is_nan_when_no_sector_survives():
    # two or more deletions are near certain every round, so no trajectory survives
    params = GnuParams(8, 3, Fraction(22, 3), 12)
    cfg = ProtocolConfig(params, r=32, q=1.5, theta=0.01, n_del=1000.0, seed=1)
    res = expected_fi_p1(cfg)
    assert math.isnan(res["mean_fi"]) and res["sector_probability"] == 0.0
    base = 32**2 * 8**6 * cfg.tau**6 * 0.01**4
    assert res["r2_formula_stated"] == (37.0 / 64.0) * base
    assert res["r2_formula_quarter"] == (9.0 / 16.0) * base


def test_protocol2_single_repetition_at_q1():
    cfg = ProtocolConfig(small_config().params, r=6, q=1.0, theta=5e-3, n_del=1e-3, seed=2)
    res = run_protocol2(cfg, n_traj=400)
    assert res["repetitions"] == 1.0
    assert res["fi_p2"] == pytest.approx((1 - res["failure_rate"]) * res["mean_fi_p1"])


def test_reference_and_batch_agree_high_noise():
    batch = run_protocol1_batch(HIGH_NOISE, 60)
    assert not protocol1_mismatches(batch, range(60))
    kept = ~batch.flag
    assert batch.counts[kept, :, 1].sum() > 10 and batch.n_deletions[kept].sum() > 10


def test_flag_and_invalid_regime_paths():
    # absurd deletion rate: multi-deletion aborts dominate, and long runs
    # dip below half the starting qubit count
    g, n, N = 2, 3, 16
    s = (N - g * n) // 2
    params = GnuParams(g, n, Fraction(N - s, g * n), s)
    cfg = ProtocolConfig(params, r=12, q=0.5, theta=1e-3, n_del=0.15, seed=1)
    batch = run_protocol1_batch(cfg, 200)
    assert batch.flag.any()
    assert not protocol1_mismatches(batch, range(200))
    assert bool((batch.flag | batch.invalid).any())


def test_round_counts_complete_on_success():
    cfg = small_config(seed=6, n_del=4e-3)
    batch = run_protocol1_batch(cfg, 400)
    ok = batch.success
    assert np.all(batch.counts[ok].sum(axis=(1, 2)) == cfg.r)
    # aborted trajectories stop early
    assert np.all(batch.counts[~ok].sum(axis=(1, 2)) < cfg.r)


def test_syn1_rate_matches_closed_form_without_deletions():
    # Pr[syn = 1 per round] = (n/4) sin^2(g Delta) (sin^(2n-4) + cos^(2n-4))
    # ~ n (g Delta / 2)^2; realized frequency over many rounds agrees to 3 sigma
    g, n, N = 4, 3, 100
    s = (N - g * n) // 2
    params = GnuParams(g, n, Fraction(N - s, g * n), s)
    cfg = ProtocolConfig(params, r=12, q=1.0, theta=0.025 * 12, n_del=0.0, seed=21)
    x = 0.5 * g * cfg.delta
    want = 0.75 * math.sin(2 * x) ** 2  # n = 3 closed form
    batch = run_protocol1_batch(cfg, 3000)
    rounds = batch.counts.sum()
    rate = batch.counts[:, 0, 1].sum() / rounds
    sigma = math.sqrt(want * (1 - want) / rounds)
    assert abs(rate - want) <= 3 * sigma
    assert abs(want - n * x * x) <= 5 * x**4  # leading-order display, n (g Delta/2)^2


def test_regime_rule_agrees_on_both_paths():
    # deletions shrink this N = 16 code until it no longer fits: row 23 ends
    # with N - s = 5 < g n = 6 and row 31 with shift -1; both paths stop such
    # a trajectory as an invalid regime, the deletion counted, and neither raises
    batch = run_protocol1_batch(N16_REGIME, 40)
    assert not protocol1_mismatches(batch, range(40))
    for idx, (n_del, shift) in ((23, (7, 4)), (31, (7, -1))):
        assert batch.invalid[idx] and not batch.flag[idx]
        assert (batch.n_deletions[idx], batch.final_shift[idx]) == (n_del, shift)
        assert batch.counts[idx].sum() < N16_REGIME.r


@pytest.mark.parametrize("theta", [1e-6, 1e-7])
def test_dphi_exact_at_small_theta(theta):
    # without deletions dPhi/dtheta = r dzeta_0/dtheta, and
    # dzeta_0/dtheta = -3 g tau tan^2 x sec^2 x / (1 + tan^6 x), x = g theta tau / 2
    cfg = small_config(n_del=0.0, theta=theta)
    g, tau = cfg.params.g, cfg.tau
    x = 0.5 * g * theta * tau
    want = cfg.r * -3 * g * tau * math.tan(x) ** 2 / (math.cos(x) ** 2 * (1 + math.tan(x) ** 6))
    batch = run_protocol1_batch(cfg, 20)
    assert np.all(batch.counts[:, 0, 0] == cfg.r)
    assert np.all(np.abs(batch.dPhi_dtheta / want - 1) <= 1e-12)
    for idx in range(3):
        rec = run_protocol1(cfg, trajectory_rng(cfg.seed, idx))
        assert rec.dPhi_dtheta == pytest.approx(want, rel=1e-12, abs=0)


def _mp_dphi_one_deletion(cfg, rec, mp):
    """dPhi/dtheta of a trajectory with one deletion, by 50-digit numerical
    differentiation of the exact per-round phases.  The deletion met the
    initial code, its shift is s - final_shift, and its syndrome is the one
    its counts record."""
    p = cfg.params
    g, N, s = p.g, p.n_qubits, p.s
    sigma = s - rec.final_shift
    tau = mp.mpf(cfg.r) ** -mp.mpf(cfg.q)
    c = [mp.sqrt(mp.binomial(3, k)) / 2 for k in range(4)]
    prof = c if rec.counts[1, 0] else [c[k] * (3 - 2 * k) / mp.sqrt(3) for k in range(4)]

    def phi(th):
        t = []
        for k in range(4):
            w = g * k + s
            ratio = mp.mpf(w) / N if sigma else 1 - mp.mpf(w) / N
            t.append(prof[k] * c[k] * mp.sqrt(ratio) * mp.expj(th * tau * (w - sigma)))
        return mp.arg((t[1] + t[3]) / (t[0] + t[2]))

    def zeta0(th):
        return 2 * mp.atan(-mp.tan(g * th * tau / 2) ** 3)

    th = mp.mpf(cfg.theta)
    return (rec.counts[0, 0] * mp.diff(zeta0, th) + rec.counts[0, 1] * g * tau
            + mp.diff(phi, th))


def test_dphi_matches_mpmath_on_deletion_rows():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    cfg = small_config(n_del=3e-3)
    batch = run_protocol1_batch(cfg, 20000)
    one = batch.success & (batch.n_deletions == 1)
    # three rows whose deletion round projected onto the codespace, three onto the q-space
    rows = [*np.nonzero(one & (batch.counts[:, 1, 0] == 1))[0][:3],
            *np.nonzero(one & (batch.counts[:, 1, 1] == 1))[0][:3]]
    assert len(rows) == 6
    for idx in rows:
        rec = run_protocol1(cfg, trajectory_rng(cfg.seed, idx))
        want = _mp_dphi_one_deletion(cfg, rec, mp)
        for got in (rec.dPhi_dtheta, batch.dPhi_dtheta[idx]):
            assert abs(got - want) <= 1e-10 * abs(want), idx


def test_one_deletion_phases_match_phase_formulas():
    # phase_formulas takes phi_{1,0} and phi_{1,1} from full Dicke vectors.  The sums
    # themselves are E_j = <j_L|U|j'> and D_j = <q_j|U|j'> for the deleted codewords |j'>
    # against the shifted code's frame (q-vectors from qec.q_vectors), but for the
    # common phase e^{-i delta N'/2} that the lattice sums drop
    from symsense.qec import deleted_codewords, frame_overlaps, phase_formulas

    for n in (3, 5, 7, 9):
        params = small_config(n=n).params
        for delta in (1e-4, 3e-3, 0.02):
            for sigma in (0, 1):
                pf = phase_formulas(params, delta, sigma)
                X = protocols.one_deletion_ratios(
                    params.g, n, params.n_qubits, params.s, sigma, delta, 1.0
                ).X
                assert abs(np.angle(X[1] / X[0]) - pf.phi10) <= 1e-12
                assert abs(np.angle(X[3] / X[2]) - pf.phi11) <= 1e-12
                frame = code_frame(params.with_shift(params.s - sigma, params.n_qubits - 1))
                zero, one = (frame_overlaps(frame, apply_signal(cw, delta).amps)
                             for cw in deleted_codewords(params, sigma))
                got = X * np.exp(-0.5j * delta * (params.n_qubits - 1))
                assert np.allclose(got, [zero[0], one[1], zero[2], one[3]], rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "field, value",
    [("theta", math.nan), ("theta", math.inf), ("q", math.inf), ("q", math.nan),
     ("n_del", math.inf), ("n_del", math.nan), ("n_del", -5.0)],
)
def test_config_rejects_non_finite_and_negative_inputs(field, value):
    kwargs = dict(r=4, q=1.0, theta=1e-3, n_del=0.0) | {field: value}
    with pytest.raises(ValueError, match=field):
        ProtocolConfig(GnuParams(2, 3, Fraction(4, 3), 1), **kwargs)


# ---------------------------------------------------------------------------
# the reference trajectory against a replay through the library operations
# ---------------------------------------------------------------------------


def criterion8_config(seed: int, rate: float = 0.02) -> ProtocolConfig:
    """The N = 2000 code of acceptance criterion 8, lambda = n_del N tau = rate per round."""
    g, n, N, r, q = 40, 3, 2000, 32, 1.5
    s = (N - g * n) // 2
    params = GnuParams(g, n, Fraction(N - s, g * n), s)
    return ProtocolConfig(params, r=r, q=q, theta=1e-3, n_del=rate / (N * r**-q), seed=seed)


def _replay_protocol1(config: ProtocolConfig, rng: np.random.Generator) -> protocols.TrajectoryRecord:
    """run_protocol1's round loop spelled out with library operations on SymStates:
    apply_signal for the signal, SymState.inner for the projections, delete
    for a deletion, and the code, codewords and q-vectors rebuilt per code."""
    p = config.params
    tau, theta = config.tau, config.theta
    uniforms = rng.random((config.r, 3))

    def frame(s, n_qubits):
        cur = p.with_shift(s, n_qubits)
        return (cur, cur.weight_lattice(), *logical_pair(cur), *q_vectors(cur)[:2])

    state = make_logical(p, Label.PLUS)
    N0 = n_cur = p.n_qubits
    s_cur = p.s
    counts = np.zeros((2, 2), dtype=int)
    Phi = dPhi = 0.0
    flag = invalid = False
    n_deleted = 0
    cur, lattice, cw0, cw1, q0, q1 = frame(s_cur, n_cur)
    for i in range(config.r):
        u_del, u_sigma, u_syn = uniforms[i]
        t = protocols._poisson_bucket(u_del, config.n_del * n_cur * tau)
        if t >= 2:
            flag = True
            break
        if n_cur - t < N0 / 2:
            invalid = True
            break
        sigma = 0
        if t == 1:
            outs = delete(state, 1)
            p_sigma1 = sum(o.weight for o in outs if o.shift == 1)
            sigma = 1 if u_sigma < p_sigma1 else 0
            state = next(o for o in outs if o.shift == sigma).state
            n_deleted += 1
            pre_n, pre_s = n_cur, s_cur
            n_cur, s_cur = n_cur - 1, s_cur - sigma
            if not code_fits(p, n_cur, s_cur):
                invalid = True
                break
            cur, lattice, cw0, cw1, q0, q1 = frame(s_cur, n_cur)
        state = apply_signal(state, theta * tau)
        e0, e1 = cw0.inner(state), cw1.inner(state)
        d0, d1 = q0.inner(state), q1.inner(state)
        p_code = abs(e0) ** 2 + abs(e1) ** 2
        p_q = abs(d0) ** 2 + abs(d1) ** 2
        if u_syn < p_code:
            syn, c0, c1, p_syn = 0, e0, e1, p_code
        elif u_syn < p_code + p_q:
            syn, c0, c1, p_syn = 1, d0, d1, p_q
        else:
            flag = True
            break
        amps = np.zeros(n_cur + 1, dtype=complex)
        amps[lattice] = (c0 * cw0.amps[lattice] + c1 * cw1.amps[lattice]) / math.sqrt(p_syn)
        state = SymState(n_cur, amps)
        counts[t, syn] += 1
        if t == 0:
            Phi += zeta(cur, theta * tau, syn)
            dPhi += tau * zeta_derivative(cur, theta * tau, syn)
        else:
            X, dX = protocols.one_deletion_ratios(p.g, p.n, pre_n, pre_s, sigma, theta * tau, tau)[:2]
            inc, dinc = protocols._phase_step(X[2 * syn], X[2 * syn + 1], dX[2 * syn], dX[2 * syn + 1])
            Phi += float(inc)
            dPhi += float(dinc)
    if flag or invalid:
        return protocols.TrajectoryRecord(
            counts, Phi, dPhi, flag, invalid, s_cur, float("nan"), 0.0, n_deleted
        )
    a0, a1 = cw0.inner(state), cw1.inner(state)
    fi = float(fi_phase_readout(math.atan2(abs(a1), abs(a0)), Phi, dPhi))
    return protocols.TrajectoryRecord(counts, Phi, dPhi, False, False, s_cur, abs(a0), fi,
                                      n_deleted, state_phase=float(np.angle(a1 / a0)))


def _field_bits(rec) -> dict:
    """Every TrajectoryRecord field as bytes, so that NaN and -0.0 compare by their bits."""
    return {f.name: np.asarray(getattr(rec, f.name)).tobytes() for f in dataclasses.fields(rec)}


@pytest.mark.parametrize(
    "config, n_traj, causes",
    [
        (small_config(), 40, ()),
        (N16_ALL_CAUSES, 40, ("flag", "invalid_regime")),
        # the criterion-8 code at five times its deletion rate: repeated deletions, shifts, flags
        (criterion8_config(seed=9, rate=0.1), 30, ("flag",)),
    ],
    ids=["N200", "N16", "N2000"],
)
def test_reference_matches_library_replay_bit_for_bit(config, n_traj, causes):
    seen = dict.fromkeys(("deleted", "ok", "flag", "invalid_regime"), 0)
    for idx in range(n_traj):
        rec = run_protocol1(config, trajectory_rng(config.seed, idx))
        want = _replay_protocol1(config, trajectory_rng(config.seed, idx))
        assert _field_bits(rec) == _field_bits(want), idx
        seen["deleted"] += rec.n_deletions > 0
        seen["ok"] += not (rec.flag or rec.invalid_regime)
        seen["flag"] += rec.flag
        seen["invalid_regime"] += rec.invalid_regime
    assert all(seen[key] for key in ("deleted", "ok", *causes)), seen


def _first_event_round(config: ProtocolConfig, index: int) -> int:
    """The first round of trajectory ``index`` with a deletion or a syndrome other than 0."""
    u = trajectory_rng(config.seed, index).random((config.r, 3))
    p_code = np.array(protocols._quiet_chain(config.params, config.delta, config.r)[0])
    p0 = math.exp(-(config.n_del * config.params.n_qubits * config.tau))
    loud = (u[:, 0] >= p0) | (u[:, 2] >= p_code)
    return int(loud.argmax()) if loud.any() else config.r


def test_quiet_prefix_replay_matches_library_replay_bit_for_bit():
    # the criterion-8 code at five times its deletion rate, up to three rows per case
    config = criterion8_config(seed=9, rate=0.1)
    picked = {"event in round 0": [], "all rounds quiet": [], "flagged after >= 2 deletions": []}
    for idx in range(200):
        rec = run_protocol1(config, trajectory_rng(config.seed, idx))
        first = _first_event_round(config, idx)
        cases = (first == 0, first == config.r, rec.flag and rec.n_deletions >= 2)
        for rows, hit in zip(picked.values(), cases):
            if hit and len(rows) < 3:
                rows.append(idx)
                want = _replay_protocol1(config, trajectory_rng(config.seed, idx))
                assert _field_bits(rec) == _field_bits(want), idx
    assert all(len(rows) == 3 for rows in picked.values()), picked


def test_quiet_chain_is_read_only_and_keyed_by_the_signal():
    config = criterion8_config(seed=3)
    twin = dataclasses.replace(config, theta=2 * config.theta)
    p_code, before = protocols._quiet_chain(config.params, config.delta, config.r)
    assert len(p_code) == config.r and before.shape == (config.r + 1, config.params.n + 1)
    assert isinstance(p_code, tuple) and not before.flags.writeable
    with pytest.raises(ValueError):
        before[0, 0] = 0.0
    twin_p_code, twin_before = protocols._quiet_chain(twin.params, twin.delta, twin.r)
    assert twin_p_code != p_code and not np.array_equal(twin_before[1:], before[1:])
    # each config replays its own chain, whichever ran first
    for cfg in (config, twin, config):
        for idx in range(4):
            rec = run_protocol1(cfg, trajectory_rng(cfg.seed, idx))
            want = _replay_protocol1(cfg, trajectory_rng(cfg.seed, idx))
            assert _field_bits(rec) == _field_bits(want), (cfg.theta, idx)


def test_frame_phases_match_apply_signal_on_a_post_qec_state():
    config = criterion8_config(seed=3)
    p, delta = config.params, config.delta
    for s, n_qubits in ((p.s, p.n_qubits), (p.s - 1, p.n_qubits - 1), (p.s, p.n_qubits - 2)):
        frame = code_frame(p.with_shift(s, n_qubits))
        c0, c1 = 0.6 - 0.1j, 0.3 + 0.7j
        lat0, lat1 = frame.cw_on_lattice
        lat = (c0 * lat0 + c1 * lat1) / math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
        post_qec = np.zeros(n_qubits + 1, dtype=complex)
        post_qec[frame.lattice] = lat
        want = apply_signal(SymState(n_qubits, post_qec), delta).amps
        got = np.zeros(n_qubits + 1, dtype=complex)
        got[frame.lattice] = lat * signal_phases(n_qubits, frame.lattice, delta)
        assert got.tobytes() == want.tobytes()


def test_reference_and_batch_agree_at_the_criterion8_code():
    # the first 256 trajectories and 64 seed-chosen ones of the first 4096
    config = criterion8_config(seed=8)
    batch = run_protocol1_batch(config, 4096)
    chosen = np.random.default_rng([config.seed, 3]).choice(4096, 64, replace=False)
    assert not protocol1_mismatches(batch, np.union1d(np.arange(256), chosen))
    assert (batch.n_deletions[chosen] > 0).sum() >= 10


# ---------------------------------------------------------------------------
# the round law
# ---------------------------------------------------------------------------


def _deleted_leak(config: ProtocolConfig, n_cur, s_cur, mod2, sigma) -> np.ndarray:
    """Per row, the weight that the signal-evolved once-deleted state a|0_L> + b|1_L>
    (|a|^2, |b|^2 = mod2, a and b real) keeps outside the span of each lattice half's
    codeword and q-vector, projected through a QR basis of the two."""
    g, n = config.params.g, config.params.n
    k = np.arange(n + 1)
    c = np.sqrt([math.comb(n, j) / 2 ** (n - 1) for j in k])
    q = c * (n / 2 - k)
    leak = np.zeros(len(n_cur))
    for row, (N, s) in enumerate(zip(n_cur, s_cur)):
        w = g * k + s
        keep = w / N if sigma else (N - w) / N
        amps = np.sqrt(mod2[k % 2, row] * keep) * c * np.exp(-1j * config.delta * (N / 2 - w))
        amps /= np.linalg.norm(amps)
        for half in (k % 2 == 0, k % 2 == 1):
            basis = np.linalg.qr(np.stack([c[half], q[half]], axis=1))[0]
            inside = np.linalg.norm(basis.T @ amps[half]) ** 2
            leak[row] += np.linalg.norm(amps[half]) ** 2 - inside
    return leak


@pytest.mark.parametrize("n", [3, 5, 7])
def test_round_law_outcomes_sum_to_one(n):
    g = 8
    config = ProtocolConfig(GnuParams(g, n, Fraction(5), 0), r=4, q=1.0, theta=0.2, n_del=1e-3)
    rng = np.random.default_rng([n, 26])
    n_cur = rng.integers(g * n + 1, 2001, size=40)
    s_cur = np.array([rng.integers(0, N - g * n + 1) for N in n_cur])
    assert code_fits(config.params, n_cur, s_cur).all()
    ma = rng.uniform(0.0, 1.0, size=40)
    mod2 = np.array([ma, 1.0 - ma])
    laws = [protocols.round_law(config, int(N), int(s)) for N, s in zip(n_cur, s_cur)]
    # the caller's share of the round: the deleted norms at each row's weights, and the
    # syndrome split over them
    A, B = (np.array([getattr(law, name) for law in laws]).T for name in "AB")
    norm = np.concatenate([np.ones((1, 40)), mod2[0] * A + mod2[1] * B])
    p_syn = protocols._syndrome_split(mod2, np.stack([law.fac for law in laws], axis=-1), norm)[1]

    # Poisson buckets t = 0, 1 and the remainder t >= 2, as a series
    lam = config.n_del * n_cur * config.tau
    assert np.array_equal([law.lam for law in laws], lam)
    p_t = [np.exp(-lam), lam * np.exp(-lam)]
    p_more = np.array([math.fsum(math.exp(-x) * x**t / math.factorial(t) for t in range(2, 40))
                       for x in lam])
    # the leak: pflag_closed_form's flag weight without a deletion, else the lattice residual
    leak = [np.full(40, pflag_closed_form(n, 0.5 * g * config.delta)[2]),
            *(_deleted_leak(config, n_cur, s_cur, mod2, sigma) for sigma in (0, 1))]
    assert all((x >= -1e-15).all() for x in (norm, p_syn, *leak))
    given_t = [p_syn[0, o] + p_syn[1, o] + leak[o] for o in range(3)]
    total = p_t[0] * given_t[0] + p_t[1] * (norm[1] * given_t[1] + norm[2] * given_t[2])
    assert np.abs(total + p_more - 1.0).max() <= 1e-12
    # the deleted norms are the shift probabilities: they sum to one on their own
    assert np.array_equal(norm[0], np.ones(40))
    assert np.abs(norm[1] + norm[2] - 1.0).max() <= 1e-14


@pytest.mark.parametrize("config", [criterion8_config(seed=3), small_config()], ids=["N2000", "N200"])
def test_round_law_matches_delete_and_project_syndrome(config):
    # from |+_L>: the shift weights of noise.delete, then qec.project_syndrome on the
    # signal-evolved branch against the shifted code's frame; without a deletion, the
    # same round on |+_L> itself.  The increments: zeta and tau zeta' without a deletion,
    # and with one the phases that phase_formulas takes from full-vector overlaps
    from symsense.qec import phase_formulas

    p, delta = config.params, config.delta
    law = protocols.round_law(config, p.n_qubits, p.s)
    norm = np.r_[1.0, 0.5 * law.A + 0.5 * law.B]  # |a|^2 = |b|^2 = 1/2
    p_syn = protocols._syndrome_split((0.5, 0.5), law.fac, norm)[1]
    plus = make_logical(p, Label.PLUS)
    branches = [(plus, 1.0, p)]
    for sigma in (0, 1):
        out = next(o for o in delete(plus, 1) if o.shift == sigma)
        branches.append((out.state, out.weight, p.with_shift(p.s - sigma, p.n_qubits - 1)))
    for o, (state, weight, code) in enumerate(branches):
        assert abs(norm[o] - weight) <= 1e-10 * weight, o
        frame = code_frame(code)
        amps = apply_signal(state, delta).amps
        p_code = project_syndrome(frame, amps, 0.0)[3]
        syn, _, _, p_q = project_syndrome(frame, amps, p_code)
        assert syn == 1
        for got, want in zip(p_syn[:, o], (p_code, p_q)):
            assert abs(got - want) <= 1e-10 * want, o
    # on the start code and on the code one deletion of shift 1 leaves
    for code in (p, p.with_shift(p.s - 1, p.n_qubits - 1)):
        law = protocols.round_law(config, code.n_qubits, code.s)
        assert np.array_equal(law.inc[:, 0], [zeta(code, delta, j) for j in (0, 1)])
        assert np.array_equal(law.dinc[:, 0],
                              [config.tau * zeta_derivative(code, delta, j) for j in (0, 1)])
        for sigma in (0, 1):
            pf = phase_formulas(code, delta, sigma)
            assert abs(law.inc[0, 1 + sigma] - pf.phi10) <= 1e-12, (code, sigma)
            assert abs(law.inc[1, 1 + sigma] - pf.phi11) <= 1e-12, (code, sigma)


def test_round_law_is_evaluated_once_per_code_with_read_only_arrays(monkeypatch):
    # a serial batch of two spans and 200 reference trajectories share one law per (N, s)
    config = criterion8_config(seed=3)
    N0, s0 = config.params.n_qubits, config.params.s
    evaluated = []
    ratios = protocols.one_deletion_ratios

    def counted(g, n, n_qubits, s, *rest):
        evaluated.extend(zip(np.ravel(n_qubits).tolist(), np.ravel(s).tolist()))
        return ratios(g, n, n_qubits, s, *rest)

    monkeypatch.setattr(protocols, "one_deletion_ratios", counted)
    monkeypatch.setenv("SYMSENSE_THREADS", "1")
    protocols.round_law.cache_clear()
    batch = run_protocol1_batch(config, 2 * protocols.BATCH_SPAN)
    records = [run_protocol1(config, trajectory_rng(config.seed, i)) for i in range(200)]
    assert (batch.n_deletions >= 2).any() and any(rec.n_deletions for rec in records)
    assert len(evaluated) == len(set(evaluated))
    ends = {(N0 - rec.n_deletions, rec.final_shift) for rec in records
            if not (rec.flag or rec.invalid_regime)}
    assert {(N0, s0)} | ends <= set(evaluated)

    law = protocols.round_law(config, N0, s0)
    assert not any(x.flags.writeable for x in law[1:])
    with pytest.raises(ValueError, match="read-only"):
        law.fac[0, 0] = 0.0


def test_round_law_is_evaluated_once_per_code_across_seeds():
    # no law reads the seed, so three seeds of one configuration share every code's law
    protocols.round_law.cache_clear()
    misses = []
    for seed in (1, 2, 3):
        expected_fi_p1(criterion8_config(seed))
        misses.append(protocols.round_law.cache_info().misses)
    assert misses[0] > 1 and misses == [misses[0]] * 3
    assert protocols.round_law.cache_info().currsize == misses[0]


def test_batch_asks_only_for_reachable_codes_at_n_past_3e9(monkeypatch):
    # N0 (N0 + 1) passes 2^63 on this code, so a key n (N0 + 1) + s would wrap
    N0, s0 = 4_000_000_002, 1_999_999_998
    config = ProtocolConfig(GnuParams(3, 3, Fraction(N0 - s0, 9), s0), r=8, q=1.0, theta=0.1,
                            n_del=0.3 / (N0 / 8))  # lambda = 0.3
    asked = []
    law = protocols.round_law
    monkeypatch.setattr(protocols, "round_law",
                        lambda config, N, s: asked.append((N, s)) or law(config, N, s))
    batch = protocols._run_batch_span(config, 0, 2000)
    assert batch.n_deletions.max() >= 2 and len(set(asked)) > 2
    assert all(0 <= N0 - N <= config.r and 0 <= s0 - s <= N0 - N for N, s in asked)


# ---------------------------------------------------------------------------
# the exact expectation
# ---------------------------------------------------------------------------


def _brute_force_p1(config: ProtocolConfig) -> np.ndarray:
    """Every successful trajectory of ``config``, enumerated round by round: each round's
    outcomes (t, sigma, syn) from round_law of the code it starts on, under the batch's
    invalid-regime and code-exhaustion rules.  Rows: probability, FI, no-deletion
    syn-1 rounds and syn-1 rounds, one column per trajectory."""
    p, N0 = config.params, config.params.n_qubits
    found = []

    def walk(rounds, N, s, ma, mb, Phi, dPhi, prob, nodel_syn1, syn1):
        if rounds == config.r:
            fi = fi_phase_readout(math.atan2(math.sqrt(mb), math.sqrt(ma)), Phi, dPhi)
            found.append((prob, float(fi), nodel_syn1, syn1))
            return
        law = protocols.round_law(config, N, s)
        for t, sigma in ((0, 0), (1, 0), (1, 1)):
            if t and (N - 1 < N0 / 2 or not code_fits(p, N - 1, s - sigma)):
                continue
            p_t = law.lam**t * math.exp(-law.lam)
            for syn in (0, 1):
                x0, x1 = law.fac[2 * syn : 2 * syn + 2, t + sigma]
                P = ma * x0 + mb * x1
                if P > 0.0:
                    walk(rounds + 1, N - t, s - sigma, ma * x0 / P, mb * x1 / P,
                         Phi + law.inc[syn, t + sigma], dPhi + law.dinc[syn, t + sigma],
                         prob * p_t * P, nodel_syn1 + (syn and not t), syn1 + syn)

    walk(0, N0, p.s, 0.5, 0.5, 0.0, 0.0, 1.0, 0, 0)
    return np.array(found).T


@pytest.mark.parametrize("params, n_del", [
    (GnuParams(3, 3, Fraction(2), 4), 0.05),  # N = 22: five shift-1 deletions exhaust s
    (GnuParams(3, 5, Fraction(2), 4), 0.05),  # n = 5: rounds also leak to the flag
    (GnuParams(1, 3, Fraction(2), 2), 0.3),  # N = 8: a fifth deletion leaves fewer than N/2
], ids=["N22", "N34-n5", "N8"])
def test_expected_fi_matches_a_round_by_round_brute_force(params, n_del):
    config = ProtocolConfig(params, r=5, q=1.0, theta=1.5, n_del=n_del)
    prob, fi, nodel_syn1, syn1 = _brute_force_p1(config)
    for include, most in ((True, None), (False, None), (True, 1), (False, 1)):
        sector = (include | (nodel_syn1 == 0)) & (syn1 <= (math.inf if most is None else most))
        ana = expected_fi_p1(config, include_nodel_syn1=include, max_total_syn1=most)
        want = prob[sector].sum()
        assert ana["sector_probability"] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert ana["mean_fi"] == pytest.approx((prob * fi)[sector].sum() / want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("config, n_traj", [
    (ProtocolConfig(GnuParams(3, 3, Fraction(2), 4), r=8, q=1.0, theta=0.3, n_del=0.05, seed=11),
     100_000),
    # the LP's optimal path at N = 1000: c = 1/2, q = 3/2, eta = 1, e1 = e2 = 1/10
    (ProtocolConfig(GnuParams(136, 3, Fraction(704, 408), 296), r=4, q=1.5, theta=1000**-0.5,
                    n_del=1e-3, seed=5), 100_000),
    (dataclasses.replace(criterion8_config(seed=4), theta=0.0), 100_000),
], ids=["N22", "N1000-LP", "N2000-theta0"])
def test_expected_fi_agrees_with_the_batch(config, n_traj):
    batch = run_protocol1_batch(config, n_traj)
    ana = expected_fi_p1(config)
    ok = float(batch.success.mean())
    assert abs(batch.mean_fi() - ana["mean_fi"]) <= 4 * batch.se_fi()
    assert abs(ok - ana["sector_probability"]) <= 4 * math.sqrt(ok * (1.0 - ok) / n_traj)


def test_expected_fi_at_the_criterion8_code():
    ana = expected_fi_p1(criterion8_config(seed=7))
    assert ana["mean_fi"] == pytest.approx(1.628882e-7, rel=1e-6)
    assert ana["sector_probability"] == pytest.approx(0.9937035, rel=1e-6)


@pytest.mark.parametrize("r", [4, 32])
@pytest.mark.parametrize("n_del", [1e300, 1e308])
def test_expected_fi_is_nan_when_deletions_are_certain(r, n_del):
    cfg = ProtocolConfig(GnuParams(8, 3, Fraction(22, 3), 12), r=r, q=1.5, theta=0.01, n_del=n_del)
    # lambda = n_del N tau is finite at 1e300 and overflows to inf at 1e308
    assert math.isinf(cfg.n_del * cfg.params.n_qubits * cfg.tau) == (n_del == 1e308)
    res = expected_fi_p1(cfg)
    assert math.isnan(res["mean_fi"]) and res["sector_probability"] == 0.0


def test_expected_fi_at_a_deletion_rate_that_underflows_per_qubit(monkeypatch):
    # n_del tau rounds to 0 while lambda = n_del N tau does not, so one deletion keeps a
    # subnormal weight: its quiet rounds spread as the ordinary binomial C(M + D, D)
    cfg = small_config(n_del=5e-324)
    assert cfg.n_del * cfg.tau == 0.0 < cfg.n_del * cfg.params.n_qubits * cfg.tau
    gaps = []
    log_gaps = protocols._log_gaps
    monkeypatch.setattr(protocols, "_log_gaps", lambda *args: gaps.append(args) or log_gaps(*args))
    assert expected_fi_p1(cfg) == expected_fi_p1(dataclasses.replace(cfg, n_del=0.0))
    assert (cfg.r - 1, 1, 0.0) in gaps


def test_expected_fi_memory_stays_bounded_at_large_r():
    r = 65536
    config = ProtocolConfig(GnuParams(3, 3, Fraction(4), 4), r=r, q=0.0, theta=0.01,
                            n_del=1.0 / (40 * r))  # one deletion per trajectory on average
    tracemalloc.start()
    try:
        ana = expected_fi_p1(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert math.isfinite(ana["mean_fi"]) and 0.999 < ana["sector_probability"] < 1.0


# ---------------------------------------------------------------------------
# seeds: 64-bit Philox key words
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.5, "3"])
def test_config_rejects_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed"):
        dataclasses.replace(small_config(), seed=seed)


@pytest.mark.parametrize("seed", [0, 2**63 - 1, 2**63, 2**64 - 1, np.uint64(2**64 - 1)])
def test_trajectory_rng_keys_philox_with_the_exact_seed(seed):
    config = dataclasses.replace(small_config(), seed=seed)
    for index in (0, 5, 2**33 + 5):
        key = trajectory_rng(config.seed, index).bit_generator.state["state"]["key"]
        assert key.dtype == np.uint64 and key.tolist() == [int(seed), index]


def test_trajectory_rng_streams_below_2_63_are_unchanged():
    # the old key=[seed, index] list gave these streams; from 2^63 up it went through float
    for seed in (0, 1, 7, 2**40 + 3, 2**62, 2**63 - 1):
        for index in (0, 5, 2**33 + 5):
            old = np.random.Generator(np.random.Philox(key=[seed, index])).random(6)
            assert np.array_equal(trajectory_rng(seed, index).random(6), old), (seed, index)


# ---------------------------------------------------------------------------
# the batch kernel against its every-row lock-step replay
# ---------------------------------------------------------------------------


def _replay_batch_span(config: ProtocolConfig, lo: int, hi: int) -> BatchResult:
    """_run_batch_span with every row running every round, quiet or not: its bit-for-bit reference.

    The round is the one the kernel's docstring describes, on all rows of
    [lo, hi) instead of the prefix that has joined.
    """
    n_traj = hi - lo
    p = config.params
    g, N0, s0 = p.g, p.n_qubits, p.s
    tau, delta = config.tau, config.delta
    U = protocols._span_uniforms(config.seed, lo, hi, config.r)

    # phase increments of a round by outcome 2 t + syn (t = 1 rows are
    # overwritten with their one-deletion phases); outcome 4 is an aborted row
    z = [zeta(p, delta, j) for j in (0, 1)]
    dz = [tau * zeta_derivative(p, delta, j) for j in (0, 1)]
    z_inc = np.array([*z, *z, 0.0])
    z_dinc = np.array([*dz, *dz, 0.0])
    p_code0, p_q0, _ = pflag_closed_form(p.n, 0.5 * g * delta)
    fac_nodel = np.array([[p_code0], [p_code0], [p_q0], [p_q0]])  # |X|^2 without deletion
    both_sigmas = np.array([[0], [1]])

    mod2 = np.full((2, n_traj), 0.5)  # |a|^2, |b|^2
    n_cur = np.full(n_traj, N0, dtype=np.int64)
    s_cur = np.full(n_traj, s0, dtype=np.int64)
    alive = np.ones(n_traj, dtype=bool)
    flag = np.zeros(n_traj, dtype=bool)
    invalid = np.zeros(n_traj, dtype=bool)
    counts = np.zeros((4, n_traj), dtype=np.int64)  # row 2 t + syn
    Phi = np.zeros(n_traj)
    dPhi = np.zeros(n_traj)

    for i in range(config.r):
        if not alive.any():
            break
        u_del, u_sigma, u_syn = U[:, i, 0], U[:, i, 1], U[:, i, 2]
        lam = config.n_del * n_cur * tau
        p0 = np.exp(-lam)
        t2 = alive & (u_del >= p0 * (1.0 + lam))
        t1 = alive & (u_del >= p0) & ~t2
        low = alive & ~t2 & (n_cur - t1 < N0 / 2)
        flag |= t2
        invalid |= low
        alive &= ~(t2 | low)
        t1 &= ~low

        # --- |X|^2 of this round's outcome and the deleted norm; the sigma = 1
        # weights A, B give that branch's probability
        fac = np.repeat(fac_nodel, n_traj, axis=1)
        norm = np.ones(n_traj)
        drow = np.nonzero(t1)[0]
        if drow.size:
            both = protocols.one_deletion_ratios(g, p.n, n_cur[drow], s_cur[drow], both_sigmas, delta, tau)
            ma, mb = mod2[:, drow]
            sigma = (u_sigma[drow] < ma * both.A[1] + mb * both.B[1]).astype(np.int64)
            cols = np.arange(drow.size)
            X, dX = both.X[:, sigma, cols], both.dX[:, sigma, cols]
            fac[:, drow] = X.real**2 + X.imag**2
            norm[drow] = ma * both.A[sigma, cols] + mb * both.B[sigma, cols]
            n_cur[drow] -= 1
            s_cur[drow] -= sigma
            unfit = drow[~code_fits(p, n_cur[drow], s_cur[drow])]
            invalid[unfit] = True
            alive[unfit] = t1[unfit] = False

        # --- QEC projections
        P_code = mod2[0] * fac[0] + mod2[1] * fac[1]
        P_q = mod2[0] * fac[2] + mod2[1] * fac[3]
        p_code = P_code / norm
        syn0 = u_syn < p_code
        syn1 = (~syn0) & (u_syn < p_code + P_q / norm)
        failed = alive & ~(syn0 | syn1)
        flag |= failed
        alive &= ~failed
        t1 &= ~failed
        P_syn = np.where(syn0, P_code, np.where(syn1, P_q, 1.0))
        mod2[0] *= np.where(syn0, fac[0], fac[2]) / P_syn
        mod2[1] *= np.where(syn0, fac[1], fac[3]) / P_syn

        # --- bookkeeping: counts, Phi, dPhi
        outcome = np.where(alive, 2 * t1 + syn1, 4)
        for j in range(4):
            counts[j] += outcome == j
        inc = z_inc[outcome]
        dinc = z_dinc[outcome]
        if drow.size and t1[drow].any():
            done = np.nonzero(t1[drow])[0]
            rows = drow[done]
            j = 2 * syn1[rows]
            inc[rows], dinc[rows] = protocols._phase_step(
                X[j, done], X[j + 1, done], dX[j, done], dX[j + 1, done]
            )
        Phi += inc
        dPhi += dinc

    ok = ~(flag | invalid)
    a_abs, b_abs = np.sqrt(mod2)
    phi_amp = np.arctan2(b_abs, a_abs)
    fi = np.where(ok, fi_phase_readout(phi_amp, Phi, dPhi), 0.0)
    return BatchResult(
        flag=flag,
        invalid=invalid,
        counts=np.ascontiguousarray(counts.T).reshape(n_traj, 2, 2),
        Phi=Phi,
        dPhi_dtheta=dPhi,
        final_amp_a=np.where(ok, a_abs, np.nan),
        fisher_information=fi,
        n_deletions=N0 - n_cur,
        final_shift=s_cur,
        config=config,
    )


def _first_event_rounds(config: ProtocolConfig, lo: int, hi: int) -> np.ndarray:
    """Each row's first round with a deletion or syndrome 1 (r if it has none)."""
    p = config.params
    U = protocols._span_uniforms(config.seed, lo, hi, config.r)
    p0 = math.exp(-config.n_del * p.n_qubits * config.tau)
    p_code0 = pflag_closed_form(p.n, 0.5 * p.g * config.delta)[0]
    loud = (U[:, :, 0] >= p0) | (U[:, :, 2] >= p_code0)
    return np.where(loud.any(axis=1), loud.argmax(axis=1), config.r)


def _quiet_and_loud(first, batch, r):
    return (first < r).any() and (first == r).any() and batch.n_deletions.any()


@pytest.mark.parametrize(
    "config, lo, hi, covered",
    [
        # the workload: most rows stay quiet to the end, some delete, some abort
        (criterion8_config(seed=12), 0, 2500,
         lambda first, b, r: _quiet_and_loud(first, b, r) and b.flag.any()),
        (criterion8_config(seed=13, rate=0.1), 7, 2007,
         lambda first, b, r: _quiet_and_loud(first, b, r) and (b.n_deletions > 1).any()),
        # flags, invalid regimes and successes side by side
        (N16_REGIME, 0, 400,
         lambda first, b, r: b.invalid.any() and b.flag.any() and b.success.any()),
        (HIGH_NOISE, 3, 603,
         lambda first, b, r: (first == 0).mean() > 0.5 and b.counts[:, :, 1].any()),
        (small_config(seed=14, n_del=1.5e-3, r=1), 0, 500,
         lambda first, b, r: _quiet_and_loud(first, b, r)),
        # no row has an event, and zeta_0 is -0.0: Phi must still start from +0.0
        (small_config(seed=15, n_del=0.0, theta=0.0), 0, 300,
         lambda first, b, r: (first == r).all() and not np.signbit(b.Phi).any()),
    ],
    ids=["criterion8", "criterion8-5x", "N16-regime", "high-noise", "r1", "no-event"],
)
def test_batch_span_matches_every_row_replay_bit_for_bit(config, lo, hi, covered):
    want = _replay_batch_span(config, lo, hi)
    assert_same_bits(protocols._run_batch_span(config, lo, hi), want)
    assert covered(_first_event_rounds(config, lo, hi), want, config.r)


# ---------------------------------------------------------------------------
# the batch at n >= 5 against a 50-digit replay
# ---------------------------------------------------------------------------


def _mp_replay(config: ProtocolConfig, index: int, mp) -> dict:
    """Trajectory ``index`` of ``config`` replayed at mp.mp.dps digits on its own uniforms.

    The state is its amplitudes a_k on the current code's lattice g k + s.  A
    deletion keeps sqrt((N - w)/N) (sigma = 0) or sqrt(w/N) (sigma = 1) of each
    amplitude; the signal multiplies weight w by exp(-i delta (N/2 - w)); the
    QEC round projects onto the codewords and onto the q-vectors, built here
    from the codewords' J_z displacement.  It checks the batch apart from the
    float reference, which ``protocol1_mismatches`` compares it with: at n >= 5
    Phi is tiny, and a deletion ratio ~1e-13 off would move its FI by ~1e-6.
    """
    p = config.params
    g, n = p.g, p.n
    tau, delta = mp.mpf(config.tau), mp.mpf(config.delta)
    c = [mp.sqrt(mp.binomial(n, k)) / mp.mpf(2) ** (mp.mpf(n - 1) / 2) for k in range(n + 1)]
    halves = (range(0, n + 1, 2), range(1, n + 1, 2))
    amps = [ck / mp.sqrt(2) for ck in c]  # |+_L>
    N0 = n_cur = p.n_qubits
    s_cur = p.s
    counts = np.zeros((2, 2), dtype=np.int64)
    row = dict(flag=False, invalid_regime=False)
    for u_del, u_sigma, u_syn in trajectory_rng(config.seed, index).random((config.r, 3)).tolist():
        lam = mp.mpf(config.n_del) * n_cur * tau
        p0 = mp.exp(-lam)
        t = 0 if u_del < p0 else 1 if u_del < p0 * (1 + lam) else 2
        if t == 2:
            row["flag"] = True
            break
        if n_cur - t < N0 / 2:
            row["invalid_regime"] = True
            break
        if t == 1:
            keep1 = [mp.mpf(g * k + s_cur) / n_cur for k in range(n + 1)]
            sigma = int(u_sigma < mp.fsum(abs(a) ** 2 * x for a, x in zip(amps, keep1)))
            kept = [a * mp.sqrt(x if sigma else 1 - x) for a, x in zip(amps, keep1)]
            norm = mp.sqrt(mp.fsum(abs(a) ** 2 for a in kept))
            amps = [a / norm for a in kept]
            n_cur, s_cur = n_cur - 1, s_cur - sigma
            if not code_fits(p, n_cur, s_cur):
                row["invalid_regime"] = True
                break
        jz = [mp.mpf(n_cur) / 2 - (g * k + s_cur) for k in range(n + 1)]
        amps = [a * mp.expj(-delta * x) for a, x in zip(amps, jz)]
        e, d, q = [], [], [None] * (n + 1)
        for half in halves:
            mean = mp.fsum(c[k] ** 2 * jz[k] for k in half)
            norm = mp.sqrt(mp.fsum((c[k] * (jz[k] - mean)) ** 2 for k in half))
            for k in half:
                q[k] = c[k] * (jz[k] - mean) / norm
            e.append(mp.fsum(c[k] * amps[k] for k in half))
            d.append(mp.fsum(q[k] * amps[k] for k in half))
        p_code, p_q = (abs(x0) ** 2 + abs(x1) ** 2 for x0, x1 in (e, d))
        if u_syn < p_code:
            syn, coef, p_syn = 0, e, p_code
        elif u_syn < p_code + p_q:
            syn, coef, p_syn = 1, d, p_q
        else:
            row["flag"] = True
            break
        amps = [coef[k % 2] * c[k] / mp.sqrt(p_syn) for k in range(n + 1)]
        counts[t, syn] += 1
    row.update(counts=counts.tolist(), n_deletions=N0 - n_cur, final_shift=s_cur)
    if not (row["flag"] or row["invalid_regime"]):
        a0, a1 = (mp.fsum(c[k] * amps[k] for k in half) for half in halves)
        row.update(final_amp_a=abs(a0), state_phase=mp.arg(a1 / a0))
    return row


def _mp_replay_mismatches(batch: BatchResult, indices, mp) -> list[str]:
    """Where the rows ``indices`` of ``batch`` differ from their 50-digit replay:
    the outcome fields exactly, final_amp_a by 1e-14, and Phi from the replayed
    state's arg(a_1/a_0) by 1e-8 modulo 2 pi."""
    found = []
    for idx in indices:
        want = _mp_replay(batch.config, idx, mp)
        got = dict(flag=bool(batch.flag[idx]), invalid_regime=bool(batch.invalid[idx]),
                   counts=batch.counts[idx].tolist(), n_deletions=int(batch.n_deletions[idx]),
                   final_shift=int(batch.final_shift[idx]))
        for field, value in got.items():
            if value != want[field]:
                found.append(f"trajectory {idx}: {field} {value!r}, want {want[field]!r}")
        if "state_phase" not in want:
            if not math.isnan(batch.final_amp_a[idx]):
                found.append(f"trajectory {idx}: aborted row has final_amp_a {batch.final_amp_a[idx]!r}")
            continue
        if not abs(batch.final_amp_a[idx] - want["final_amp_a"]) <= 1e-14:
            found.append(f"trajectory {idx}: final_amp_a {batch.final_amp_a[idx]!r}, "
                         f"want {mp.nstr(want['final_amp_a'], 20)}")
        wrapped = (batch.Phi[idx] - float(want["state_phase"]) + math.pi) % (2 * math.pi) - math.pi
        if not abs(wrapped) < 1e-8:
            found.append(f"trajectory {idx}: Phi {batch.Phi[idx]!r} is {wrapped!r} off the state")
    return found


@pytest.mark.parametrize(
    "config, seen",
    [
        (small_config(n=5, n_del=3e-3), ("deleted", "ok")),
        (small_config(n=7, n_del=3e-3), ("deleted", "ok")),
        # x = g delta / 2 = 0.6: nearly every row is flagged
        (dataclasses.replace(HIGH_NOISE, params=GnuParams(4, 5, Fraction(9, 5), 24)), ("flag",)),
    ],
    ids=["N200-n5", "N200-n7", "high-noise-n5"],
)
def test_batch_matches_a_50_digit_replay_at_odd_n_above_3(config, seen):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        batch = run_protocol1_batch(config, 60)
        assert not _mp_replay_mismatches(batch, range(60), mp)
    rows = dict(deleted=batch.n_deletions > 0, ok=batch.success, flag=batch.flag)
    assert all(rows[key].any() for key in seen)


@pytest.mark.parametrize("n", [5, 7])
def test_reference_is_an_oracle_at_odd_n_above_3(n):
    # both paths delete by the correctly rounded (N - w)/N and w/N, so the tiny
    # Phi of n >= 5 gives the same FI on both
    batch = run_protocol1_batch(small_config(n=n, n_del=3e-3), 400)
    assert (batch.n_deletions > 0).any()
    assert not protocol1_mismatches(batch, range(400))
