"""Protocol Monte-Carlo: reference vs batch agreement, bookkeeping invariants, baselines."""

import dataclasses
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from symsense import cli, protocols
from symsense.cli import write_summary_csv, write_trajectories_jsonl
from symsense.codes import GnuParams, Label, code_fits, logical_pair, make_logical
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
from symsense.qec import pflag_closed_form, q_vectors, zeta, zeta_derivative
from symsense.symcore import SymState, apply_signal


def small_config(seed=42, n_del=2e-3, theta=5e-3, r=12) -> ProtocolConfig:
    g, n, N = 8, 3, 200
    s = (N - g * n) // 2
    params = GnuParams(g, n, Fraction(N - s, g * n), s)
    return ProtocolConfig(params, r=r, q=1.2, theta=theta, n_del=n_del, seed=seed)


def test_config_requires_n3():
    with pytest.raises(ValueError):
        ProtocolConfig(GnuParams(8, 5, Fraction(5), 0), r=4, q=1.5, theta=0.01, n_del=0.0)


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
    want = cfg.r * zeta(cfg.params, cfg.theta * cfg.tau, 0)
    assert rec.counts[0, 0] == cfg.r
    assert abs(rec.Phi - want) < 1e-15 + 1e-9 * abs(want)


def test_reference_and_batch_agree_trajectorywise():
    # the second config (N = 16) aborts rows by every cause: flags, and runs
    # that fall below half the qubits before the code runs out of room
    tiny = GnuParams(2, 3, Fraction(10, 6), 6)
    n_traj = 40
    flagged = invalid = 0
    for cfg in (small_config(), ProtocolConfig(tiny, r=40, q=1.0, theta=1e-3, n_del=0.5, seed=2)):
        batch = run_protocol1_batch(cfg, n_traj)
        for idx in range(n_traj):
            rec = run_protocol1(cfg, trajectory_rng(cfg.seed, idx))
            assert bool(batch.flag[idx]) == rec.flag
            assert bool(batch.invalid[idx]) == rec.invalid_regime
            if rec.flag or rec.invalid_regime:
                # an aborted trajectory has no final state on either path
                assert math.isnan(rec.final_amp_a) and math.isnan(batch.final_amp_a[idx])
                flagged += rec.flag
                invalid += rec.invalid_regime
                continue
            assert np.array_equal(batch.counts[idx], rec.counts)
            assert batch.Phi[idx] == pytest.approx(rec.Phi, rel=1e-9, abs=1e-13)
            assert batch.dPhi_dtheta[idx] == pytest.approx(rec.dPhi_dtheta, rel=1e-9, abs=1e-12)
            assert batch.final_amp_a[idx] == pytest.approx(rec.final_amp_a, abs=1e-10)
            assert batch.fisher_information[idx] == pytest.approx(
                rec.fisher_information, rel=1e-6, abs=1e-300
            )
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
    # rebuild the final lattice state phase from the batch and compare to Phi
    cfg = small_config(n_del=3e-3)
    n_traj = 60
    batch = run_protocol1_batch(cfg, n_traj)
    # run the exact reference and compare its final state phase against Phi
    for idx in range(n_traj):
        rec = run_protocol1(cfg, trajectory_rng(cfg.seed, idx))
        if rec.flag or rec.invalid_regime:
            continue
        # the reference already checks Phi == state phase internally via
        # the batch equality test; here assert the batch Phi is consistent
        # with an independent full-state replay
        assert batch.Phi[idx] == pytest.approx(rec.Phi, rel=1e-9, abs=1e-13)


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


def test_batch_parallel_matches_serial(monkeypatch):
    cfg = small_config(seed=5, n_del=3e-3, r=10)
    whole = run_protocol1_batch(cfg, 300)  # one span
    monkeypatch.setattr(protocols, "BATCH_SPAN", 64)  # spans of 64, the last one short
    serial = run_protocol1_batch(cfg, 300)
    monkeypatch.setenv("SYMSENSE_THREADS", "2")
    parallel = run_protocol1_batch(cfg, 300)
    assert serial.success.sum() < 300 and serial.n_deletions.any()
    for name in BATCH_ARRAYS:
        want = getattr(whole, name)
        for got in (getattr(serial, name), getattr(parallel, name)):
            # bytes, so that the NaN of aborted rows compares equal
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


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
    monkeypatch.setattr(cli, "BATCH_SPAN", 7)  # several chunks
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


def test_row_keys_compact_before_the_radix_product_overflows():
    # six columns of 2000 rows spanning [0, 2000) each: the raw mixed radix is 2000^6 > 2^63
    rng = np.random.default_rng(5)
    cols = [rng.integers(0, 2000, size=2000) for _ in range(6)]
    for col in cols:
        col[:2] = (0, 1999)
        col[1000:1100] = col[1000]  # repeated rows, so equal keys must appear
    # a constant column, and one whose range (2^64) does not fit an int64
    cols += [np.full(2000, -7), np.array([-(2**63), 2**63 - 1] * 1000)]
    key = cli._row_keys(cols)
    assert key.dtype == np.int64 and key.min() >= 0
    want = np.unique(np.stack(cols, axis=1), axis=0, return_inverse=True)[1].ravel()
    # equal keys exactly where the rows are equal
    assert np.array_equal(np.unique(key, return_inverse=True)[1].ravel(), want)


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

    monkeypatch.setattr(protocols, "ProcessPoolExecutor", no_pool)
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


def test_protocol2_single_repetition_at_q1():
    cfg = ProtocolConfig(small_config().params, r=6, q=1.0, theta=5e-3, n_del=1e-3, seed=2)
    res = run_protocol2(cfg, n_traj=400)
    assert res["repetitions"] == 1.0
    assert res["fi_p2"] == pytest.approx((1 - res["failure_rate"]) * res["mean_fi_p1"])


def test_reference_and_batch_agree_high_noise():
    # large signal per round (x ~ 0.6) makes syn = 1 common, and a high
    # deletion rate exercises the recovery paths in both implementations
    g, n, N = 4, 3, 60
    s = (N - g * n) // 2
    params = GnuParams(g, n, Fraction(N - s, g * n), s)
    cfg = ProtocolConfig(params, r=8, q=1.0, theta=0.3 / cfgtau(8, 1.0), n_del=0.05, seed=77)
    batch = run_protocol1_batch(cfg, 60)
    syn1_seen = deletion_seen = 0
    for idx in range(60):
        rec = run_protocol1(cfg, trajectory_rng(cfg.seed, idx))
        assert bool(batch.flag[idx]) == rec.flag
        if rec.flag:
            continue
        assert np.array_equal(batch.counts[idx], rec.counts)
        assert batch.Phi[idx] == pytest.approx(rec.Phi, rel=1e-9, abs=1e-12)
        assert batch.final_amp_a[idx] == pytest.approx(rec.final_amp_a, abs=1e-10)
        syn1_seen += rec.counts[:, 1].sum()
        deletion_seen += rec.n_deletions
    assert syn1_seen > 10 and deletion_seen > 10


def cfgtau(r, q):
    return float(r) ** (-q)


def test_flag_and_invalid_regime_paths():
    # absurd deletion rate: multi-deletion aborts dominate, and long runs
    # dip below half the starting qubit count
    g, n, N = 2, 3, 16
    s = (N - g * n) // 2
    params = GnuParams(g, n, Fraction(N - s, g * n), s)
    cfg = ProtocolConfig(params, r=12, q=0.5, theta=1e-3, n_del=0.15, seed=1)
    batch = run_protocol1_batch(cfg, 200)
    assert batch.flag.any()
    rec_flags = [run_protocol1(cfg, trajectory_rng(cfg.seed, i)).flag for i in range(200)]
    assert np.array_equal(np.array(rec_flags), batch.flag)
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
    cfg = ProtocolConfig(
        GnuParams(2, 3, Fraction(11, 6), 5), r=40, q=1.0, theta=1e-3, n_del=0.5, seed=1
    )
    batch = run_protocol1_batch(cfg, 40)
    for idx in range(40):
        rec = run_protocol1(cfg, trajectory_rng(cfg.seed, idx))
        assert bool(batch.flag[idx]) == rec.flag, idx
        assert bool(batch.invalid[idx]) == rec.invalid_regime, idx
        assert batch.n_deletions[idx] == rec.n_deletions, idx
        assert batch.final_shift[idx] == rec.final_shift, idx
        assert np.array_equal(batch.counts[idx], rec.counts), idx
    for idx, (n_del, shift) in ((23, (7, 4)), (31, (7, -1))):
        assert batch.invalid[idx] and not batch.flag[idx]
        assert (batch.n_deletions[idx], batch.final_shift[idx]) == (n_del, shift)
        assert batch.counts[idx].sum() < cfg.r


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
    # phase_formulas takes phi_{1,0} and phi_{1,1} from full Dicke vectors
    from symsense.qec import phase_formulas

    params = small_config().params
    for delta in (1e-4, 3e-3, 0.02):
        for sigma in (0, 1):
            pf = phase_formulas(params, delta, sigma)
            X = protocols.one_deletion_ratios(
                params.g, params.n_qubits, params.s, sigma, delta, 1.0
            ).X
            assert abs(np.angle(X[1] / X[0]) - pf.phi10) <= 1e-12
            assert abs(np.angle(X[3] / X[2]) - pf.phi11) <= 1e-12


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

    state = make_logical(p, Label.PLUS).state
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
            X, dX = protocols.one_deletion_ratios(p.g, pre_n, pre_s, sigma, theta * tau, tau)[:2]
            inc, dinc = protocols._phase_step(X[2 * syn], X[2 * syn + 1], dX[2 * syn], dX[2 * syn + 1])
            Phi += float(inc)
            dPhi += float(dinc)
    if flag or invalid:
        return protocols.TrajectoryRecord(
            counts, Phi, dPhi, flag, invalid, s_cur, float("nan"), 0.0, n_deleted
        )
    a0, a1 = cw0.inner(state), cw1.inner(state)
    fi = float(protocols.fi_phase_readout_vec(math.atan2(abs(a1), abs(a0)), Phi, dPhi))
    return protocols.TrajectoryRecord(counts, Phi, dPhi, False, False, s_cur, abs(a0), fi,
                                      n_deleted, state_phase=float(np.angle(a1 / a0)))


def _field_bits(rec) -> dict:
    """Every TrajectoryRecord field as bytes, so that NaN and -0.0 compare by their bits."""
    return {f.name: np.asarray(getattr(rec, f.name)).tobytes() for f in dataclasses.fields(rec)}


@pytest.mark.parametrize(
    "config, n_traj, causes",
    [
        (small_config(), 40, ()),
        # the N = 16 config of test_reference_and_batch_agree_trajectorywise, which aborts by every cause
        (ProtocolConfig(GnuParams(2, 3, Fraction(10, 6), 6), r=40, q=1.0, theta=1e-3, n_del=0.5,
                        seed=2), 40, ("flag", "invalid_regime")),
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


def test_frame_phases_match_apply_signal_on_a_post_qec_state():
    config = criterion8_config(seed=3)
    p, delta = config.params, config.theta * config.tau
    for s, n_qubits in ((p.s, p.n_qubits), (p.s - 1, p.n_qubits - 1), (p.s, p.n_qubits - 2)):
        frame = protocols._code_frame(p, s, n_qubits, delta)
        c0, c1 = 0.6 - 0.1j, 0.3 + 0.7j
        lat = (c0 * frame.cw0_lat + c1 * frame.cw1_lat) / math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
        post_qec = np.zeros(n_qubits + 1, dtype=complex)
        post_qec[frame.lattice] = lat
        want = apply_signal(SymState(n_qubits, post_qec), delta).amps
        got = np.zeros(n_qubits + 1, dtype=complex)
        got[frame.lattice] = lat * frame.phases
        assert got.tobytes() == want.tobytes()


def test_reference_and_batch_agree_at_the_criterion8_code():
    # 64 seed-chosen trajectories of the first 4096, at the tolerances of
    # test_reference_and_batch_agree_trajectorywise
    config = criterion8_config(seed=8)
    batch = run_protocol1_batch(config, 4096)
    rows = np.random.default_rng([config.seed, 3]).choice(4096, 64, replace=False)
    with_deletion = 0
    for idx in sorted(rows.tolist()):
        rec = run_protocol1(config, trajectory_rng(config.seed, idx))
        assert bool(batch.flag[idx]) == rec.flag, idx
        assert bool(batch.invalid[idx]) == rec.invalid_regime, idx
        assert batch.n_deletions[idx] == rec.n_deletions, idx
        assert batch.final_shift[idx] == rec.final_shift, idx
        with_deletion += rec.n_deletions > 0
        if rec.flag or rec.invalid_regime:
            assert math.isnan(rec.final_amp_a) and math.isnan(batch.final_amp_a[idx])
            continue
        assert np.array_equal(batch.counts[idx], rec.counts), idx
        assert batch.Phi[idx] == pytest.approx(rec.Phi, rel=1e-9, abs=1e-13)
        assert batch.dPhi_dtheta[idx] == pytest.approx(rec.dPhi_dtheta, rel=1e-9, abs=1e-12)
        assert batch.final_amp_a[idx] == pytest.approx(rec.final_amp_a, abs=1e-10)
        assert batch.fisher_information[idx] == pytest.approx(
            rec.fisher_information, rel=1e-6, abs=1e-300
        )
    assert with_deletion >= 10


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

    Trajectories [lo, hi) in lock-step over the logical weights (|a|^2, |b|^2) of each row.

    A round maps (a, b) -> (a X_0, b X_1) / sqrt(P) with the factors of its
    outcome: the closed-form no-deletion ones, or the lattice sums of
    :func:`one_deletion_ratios` on rows with a deletion.  Every probability
    is |a|^2 |X_0|^2 + |b|^2 |X_1|^2 over the deleted norm |a|^2 A + |b|^2 B,
    so the phases of a and b never feed back and only their squared moduli
    are carried; Phi is the sum of the analytic increments.  Every row is
    updated every round and aborts only clear ``alive``: an aborted row adds
    no counts, phases or deletions after its abort, and its weights, which
    keep being updated, are not read: as in :func:`run_protocol1`, its
    ``final_amp_a`` is NaN and its FI is 0.
    """
    n_traj = hi - lo
    p = config.params
    g, N0, s0 = p.g, p.n_qubits, p.s
    tau, delta = config.tau, config.theta * config.tau
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
            both = protocols.one_deletion_ratios(g, n_cur[drow], s_cur[drow], both_sigmas, delta, tau)
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
    fi = np.where(ok, protocols.fi_phase_readout_vec(phi_amp, Phi, dPhi), 0.0)
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


def _n16_regime_config() -> ProtocolConfig:
    """The N = 16 config of test_regime_rule_agrees_on_both_paths, whose codes run out."""
    return ProtocolConfig(
        GnuParams(2, 3, Fraction(11, 6), 5), r=40, q=1.0, theta=1e-3, n_del=0.5, seed=1
    )


def _high_noise_config() -> ProtocolConfig:
    """The N = 60 config of test_reference_and_batch_agree_high_noise."""
    g, n, N = 4, 3, 60
    s = (N - g * n) // 2
    params = GnuParams(g, n, Fraction(N - s, g * n), s)
    return ProtocolConfig(params, r=8, q=1.0, theta=0.3 / cfgtau(8, 1.0), n_del=0.05, seed=77)


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
        (_n16_regime_config(), 0, 400,
         lambda first, b, r: b.invalid.any() and b.flag.any() and b.success.any()),
        (_high_noise_config(), 3, 603,
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
    got = protocols._run_batch_span(config, lo, hi)
    want = _replay_batch_span(config, lo, hi)
    for name in BATCH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert covered(_first_event_rounds(config, lo, hi), want, config.r)
