"""Acceptance gate: one test per criterion, at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them on success). Headline scores of the original study are documentation
constants in ``spreadnet.reference``; nothing here asserts them, because
the original dataset was never published. Acceptance is property-based.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from spreadnet.demo import write_demo_workspace
from spreadnet.metrics import (
    PERFECT_STRATEGY,
    equity_curves,
    excess_predictability_from_positions,
    modified_sharpe,
    ols_fit,
)
from spreadnet.neural import AffineMap, NetworkModel, gradient_check
from spreadnet.pipeline import PipelineConfig, run_pipeline
from spreadnet.preprocess import (
    VarConfig,
    assemble_base_sets,
    denormalize_output,
    normalize_output,
    rolling_var,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}", flush=True)
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {description}", flush=True)


def test_01_var_oracle_equivalence():
    with criterion(1, "rolling VaR equals sort-and-pick oracle on 500 windows, exactly"):
        cfg = VarConfig(window=65, confidence=0.95)
        rng = np.random.default_rng(101)
        values = rng.normal(0.0, 140.0, size=565)
        t0 = time.perf_counter()
        band = rolling_var(values, cfg)
        assert band.shape == (500,)
        for t in range(500):
            window = sorted(values[t : t + 65])
            assert band[t] == -window[cfg.rank - 1]
        assert time.perf_counter() - t0 < 1.0


def test_02_var_calibration():
    with criterion(2, "95% band exceedance rate within [3%, 7%] on iid normal returns"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(102)
        returns = rng.normal(0.0, 150.0, size=5000)
        band = rolling_var(returns, VarConfig(window=65, confidence=0.95))
        falls = -returns[65:]
        rate = float(np.mean(falls > band))
        assert 0.03 <= rate <= 0.07
        assert time.perf_counter() - t0 < 5.0


def _ism_oracle(predicted, actual):
    """Fully independent recomputation of the modified Sharpe index."""
    n = len(actual)
    returns = [math.log(actual[t] / actual[t - 1]) for t in range(1, n)]
    positions = [1.0 if predicted[t] >= actual[t - 1] else -1.0 for t in range(1, n)]
    eq, pe = [], []
    acc_eq = acc_pe = 0.0
    failures = []
    for pos, ret in zip(positions, returns):
        acc_eq += pos * ret * 100.0
        acc_pe += abs(ret) * 100.0
        eq.append(acc_eq)
        pe.append(acc_pe)
        if pos * ret < 0:
            failures.append(abs(ret))
    if not failures:
        return None

    def amplified_slope(curve):
        m = len(curve)
        xs = [(i + 1) for i in range(m)]
        ys = [c * (1 + 10 * (i + 1) / m) for i, c in enumerate(curve)]
        sx, sy = sum(xs), sum(ys)
        sxx = sum(x * x for x in xs)
        sxy = sum(x * y for x, y in zip(xs, ys))
        return (m * sxy - sx * sy) / (m * sxx - sx * sx)

    q = amplified_slope(eq) / amplified_slope(pe)
    return q / (sum(failures) / len(failures))


def test_03_ism_oracle_equivalence():
    with criterion(3, "modified Sharpe matches a normal-equation oracle to 1e-9"):
        rng = np.random.default_rng(103)
        checked = 0
        while checked < 100:
            n = int(rng.integers(10, 60))
            actual = 100.0 * np.exp(np.cumsum(rng.uniform(-0.08, 0.08, size=n)))
            predicted = actual * rng.uniform(0.95, 1.05, size=n)
            expected = _ism_oracle(predicted, actual)
            if expected is None:
                continue
            got = modified_sharpe(equity_curves(predicted, actual))
            assert got is not PERFECT_STRATEGY
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))
            checked += 1


def test_04_equity_curve_invariants():
    with criterion(4, "pe non-decreasing, pe >= |eq|, equality iff no failures (1000 cases)"):
        rng = np.random.default_rng(104)
        for _ in range(1000):
            n = int(rng.integers(3, 50))
            actual = 50.0 * np.exp(np.cumsum(rng.uniform(-0.1, 0.1, size=n)))
            predicted = actual * rng.uniform(0.9, 1.1, size=n)
            report = equity_curves(predicted, actual)
            assert np.all(np.diff(report.pe) >= 0)
            assert np.all(report.pe >= np.abs(report.eq))
            if report.failures:
                assert not np.array_equal(report.eq, report.pe)
            else:
                assert np.array_equal(report.eq, report.pe)


def test_05_ep_distribution():
    with criterion(5, "EP statistic ~ N(0,1): mean in ±0.05, variance in [0.9, 1.1]"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(105)
        stats = []
        for _ in range(10_000):
            y = rng.normal(0.0, 0.03, size=200)
            s = rng.choice([-1.0, 1.0], size=200)
            if abs(float(s.sum())) == 200.0:
                continue
            stats.append(excess_predictability_from_positions(s, y).statistic)
        stats = np.asarray(stats)
        assert -0.05 <= stats.mean() <= 0.05
        assert 0.9 <= stats.var() <= 1.1
        assert time.perf_counter() - t0 < 30.0


def test_06_gradient_check():
    with criterion(6, "analytic vs central-difference gradients agree to 1e-4 (20 nets)"):
        rng = np.random.default_rng(106)
        for _ in range(20):
            n_in = int(rng.integers(2, 5))
            hidden = int(rng.integers(2, 6))
            model = NetworkModel(
                layer_sizes=(n_in, hidden, 1),
                weights=(
                    rng.uniform(-0.6, 0.6, size=(hidden, n_in + 1)),
                    rng.uniform(-0.6, 0.6, size=(1, hidden + 1)),
                ),
                input_scaling=AffineMap(
                    rng.uniform(0.5, 1.5, size=n_in), rng.uniform(-0.5, 0.5, size=n_in)
                ),
                output_scaling=AffineMap(np.array([0.04]), np.array([-0.5])),
            )
            sample = (rng.uniform(-2, 2, size=n_in), float(rng.uniform(-20, 20)))
            assert gradient_check(model, sample, epsilon=1e-5) < 1e-4


def test_07_learnability_full_pipeline(tmp_path):
    with criterion(7, "full pipeline (restarts=50): master normEP > 95%, ISM > 2, "
                      ">= median member"):
        t0 = time.perf_counter()
        _, config_path = write_demo_workspace(tmp_path, restarts=50)
        config = PipelineConfig.from_file(config_path)
        result = run_pipeline(config, through="report")
        master = result.master.score
        assert master.norm_ep is not None and master.norm_ep > 95.0
        assert master.ism > 2.0
        member_keys = [c.score.ism for c in result.members]
        assert master.ism >= np.median(member_keys)
        assert time.perf_counter() - t0 < 300.0


def test_08_normalization_round_trip():
    with criterion(8, "normalize/denormalize reproduces actuals to 1e-12 (1000 series)"):
        rng = np.random.default_rng(108)
        for _ in range(1000):
            n = int(rng.integers(4, 40))
            x = 200.0 * np.exp(np.cumsum(rng.uniform(-0.15, 0.15, size=n)))
            mod = normalize_output(x)
            rebuilt = np.array(
                [denormalize_output(mod[i], x[i : i + 3]) for i in range(len(mod))]
            )
            assert np.allclose(rebuilt, x[3:], rtol=1e-12, atol=1e-12)


def test_09_ols_recovery_and_centered_form():
    with criterion(9, "noiseless OLS recovers coefficients to 1e-9, r^2 = 1 to 1e-12"):
        rng = np.random.default_rng(109)
        for _ in range(25):
            n = int(rng.integers(5, 120))
            x = rng.uniform(-40, 90, size=n)
            if np.ptp(x) == 0:
                continue
            a, b = float(rng.uniform(-100, 2000)), float(rng.uniform(-20, 20))
            res = ols_fit(x, a + b * x)
            assert abs(res.slope - b) <= 1e-9 * max(1.0, abs(b))
            assert abs(res.intercept - (a + b * x.mean())) <= 1e-9 * max(1.0, abs(a))
            assert abs(res.r_squared - 1.0) <= 1e-12
        # centered-form convention: y = a + b (x - x_bar) has intercept a at x_bar
        x = rng.uniform(50, 150, size=89)
        y = 1812.6 - 9.55 * (x - x.mean())
        res = ols_fit(x, y)
        assert abs(res.intercept - 1812.6) <= 1e-9 * 1812.6
        assert abs(res.slope - (-9.55)) <= 1e-9 * 9.55


def test_10_pipeline_determinism(tmp_path):
    with criterion(10, "two identical pipeline runs give bit-identical manifests "
                       "(excluding timestamps)"):
        _, config_path = write_demo_workspace(
            tmp_path, restarts=2, enabled_sets=[3, 7], rng_seed=42
        )
        config = PipelineConfig.from_file(config_path)
        a = run_pipeline(config, through="report", run_dir=tmp_path / "a")
        b = run_pipeline(config, through="report", run_dir=tmp_path / "b")
        ma = {k: v for k, v in a.manifest.items() if k != "created_at"}
        mb = {k: v for k, v in b.manifest.items() if k != "created_at"}
        assert json.dumps(ma, sort_keys=True) == json.dumps(mb, sort_keys=True)


def test_11_base_set_structure(demo_frame):
    with criterion(11, "demo frame yields the 10-set structure (64 matrices, set 7 "
                       "VaR-free, sets 8-10 normalized output)"):
        matrices = assemble_base_sets(demo_frame)
        assert len(matrices) == 64
        by_set = {}
        for m in matrices:
            by_set.setdefault(m.base_set_id, []).append(m)
        assert sorted(by_set) == list(range(1, 11))
        for m in by_set[7]:
            assert not any(name.startswith("var") for name in m.input_names)
        for set_id in (8, 9, 10):
            assert all(m.output_recipe == "normalized" for m in by_set[set_id])
        for set_id in (1, 2, 7, 8, 9, 10):
            assert sorted(m.lag for m in by_set[set_id]) == list(range(1, 11))
        for set_id in (3, 4, 5, 6):
            assert [m.lag for m in by_set[set_id]] == [1]
