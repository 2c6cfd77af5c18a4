import math

import numpy as np
import pytest

from anmf.metrics import (
    Choice,
    LogUniform,
    SearchSpace,
    Uniform,
    cap_scores,
    cv_split,
    median_bootstrap_se,
    psnr,
    psnr_columns,
    random_search,
    si_sdr,
    weighted_score,
)


class TestPsnr:
    def test_known_value(self):
        ref = np.zeros(4)
        est = np.full(4, 0.5)
        # mse = 0.25, peak = 1 -> 10 log10(4)
        assert abs(psnr(est, ref) - 10 * math.log10(4)) < 1e-12

    def test_exact_match_sentinel(self):
        x = np.random.default_rng(0).random(10)
        assert psnr(x, x) == math.inf

    def test_peak_scaling(self):
        ref = np.zeros(3)
        est = np.ones(3)
        assert abs(psnr(est, ref, peak=2.0) - (psnr(est, ref) + 10 * math.log10(4))) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            psnr(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            psnr(np.ones(3), np.ones(3), peak=0.0)

    @pytest.mark.parametrize("peak", [math.nan, math.inf], ids=["nan", "inf"])
    def test_peak_must_be_finite(self, peak):
        # a NaN peak scores NaN and an infinite one +inf, whatever the estimate
        for score in (psnr, psnr_columns):
            with pytest.raises(ValueError, match=f"^peak must be positive and finite, not {peak}$"):
                score(np.ones((3, 2)), np.zeros((3, 2)), peak=peak)


class TestPsnrColumns:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bitwise_per_column_psnr(self, order):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m, n = (int(k) for k in rng.integers(1, 300, size=2))
            est = np.asarray(rng.random((m, n)), order=order)
            ref = np.asarray(rng.random((m, n)), order=order)
            est[:, 0] = ref[:, 0]
            peak = float(rng.uniform(0.5, 2.0))
            expected = [psnr(est[:, k], ref[:, k], peak) for k in range(n)]
            assert psnr_columns(est, ref, peak) == expected
            assert expected[0] == math.inf

    def test_validation(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            psnr_columns(np.ones((3, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError, match="peak"):
            psnr_columns(np.ones((3, 2)), np.ones((3, 2)), peak=-1.0)
        with pytest.raises(ValueError, match="matrices"):
            psnr_columns(np.ones(3), np.ones(3))


class TestSiSdr:
    def test_scale_invariant(self):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal(100)
        est = ref + 0.1 * rng.standard_normal(100)
        a = si_sdr(est, ref)
        b = si_sdr(est, 3.7 * ref)
        assert abs(a - b) < 1e-9

    def test_proportional_estimate_sentinel(self):
        ref = np.random.default_rng(2).standard_normal(50)
        assert si_sdr(ref, ref) == math.inf
        # a float-scaled copy is only proportional up to rounding
        assert si_sdr(0.3 * ref, ref) > 250.0

    def test_known_value(self):
        ref = np.array([1.0, 0.0])
        est = np.array([1.0, 1.0])
        # projection = ref, noise = [0, 1] -> 0 dB
        assert abs(si_sdr(est, ref)) < 1e-12

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            si_sdr(np.ones(3), np.zeros(3))

    def test_zero_estimate_scores_neg_inf(self):
        assert si_sdr(np.zeros(3), np.array([1.0, 2.0, 3.0])) == -math.inf

    def test_orthogonal_estimate_scores_neg_inf(self):
        assert si_sdr(np.array([1.0, -1.0, 0.0]), np.array([1.0, 1.0, 5.0])) == -math.inf


class TestAggregation:
    def test_cap_scores(self):
        assert cap_scores([math.inf, 50.0, 120.0]) == [100.0, 50.0, 100.0]

    def test_cap_scores_floor(self):
        assert cap_scores([-math.inf, -50.0, -120.0]) == [-100.0, -50.0, -100.0]

    def test_weighted_score(self):
        assert weighted_score([10.0, 20.0], [0.25, 0.75]) == 17.5
        with pytest.raises(ValueError):
            weighted_score([1.0, 2.0], [0.5, 0.6])
        with pytest.raises(ValueError):
            weighted_score([1.0], [0.5, 0.5])

    @pytest.mark.parametrize("weights", [[0.5, 0.6], [-0.1, 1.1], [np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf]],
                             ids=["sum_above_1", "negative", "nan", "nan_and_1", "inf"])
    def test_weighted_score_rejects_weights_off_the_simplex(self, weights):
        # each is a comparison NaN fails, so NaN weights are no score
        with pytest.raises(ValueError, match="^weights must lie on the simplex$"):
            weighted_score([1.0, 2.0], weights)

    def test_median_bootstrap_se_deterministic(self):
        vals = np.random.default_rng(3).random(40)
        assert median_bootstrap_se(vals, seed=5) == median_bootstrap_se(vals, seed=5)

    def test_median_bootstrap_se_constant_data(self):
        assert median_bootstrap_se(np.full(20, 2.0)) == 0.0


class TestCvSplit:
    def test_partition(self):
        splits = cv_split(23, 5, seed=1)
        all_val = np.concatenate([v for _, v in splits])
        assert sorted(all_val) == list(range(23))
        for train, val in splits:
            assert len(set(train) & set(val)) == 0
            assert len(train) + len(val) == 23

    def test_deterministic(self):
        a = cv_split(10, 3, seed=4)
        b = cv_split(10, 3, seed=4)
        for (t1, v1), (t2, v2) in zip(a, b):
            assert np.array_equal(t1, t2) and np.array_equal(v1, v2)

    def test_validation(self):
        with pytest.raises(ValueError):
            cv_split(5, 1)
        with pytest.raises(ValueError):
            cv_split(5, 6)


class TestSamplers:
    def test_log_uniform_range(self):
        s = LogUniform(1e-4, 1e-1)
        rng = np.random.default_rng(0)
        draws = [s.sample(rng) for _ in range(200)]
        assert all(1e-4 <= d <= 1e-1 for d in draws)
        # roughly half the draws below the geometric midpoint
        mid = math.sqrt(1e-4 * 1e-1)
        frac = np.mean([d < mid for d in draws])
        assert 0.3 < frac < 0.7

    def test_choice_and_uniform(self):
        rng = np.random.default_rng(1)
        c = Choice([8, 16, 32])
        assert all(c.sample(rng) in (8, 16, 32) for _ in range(50))
        u = Uniform(-1.0, 1.0)
        assert all(-1.0 <= u.sample(rng) <= 1.0 for _ in range(50))

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            LogUniform(0.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            Choice([])


class TestRandomSearch:
    def space(self):
        return SearchSpace({"x": Uniform(0.0, 1.0)})

    def test_selects_best_trial(self):
        result = random_search(
            self.space(), 10, lambda p, tr, va: -((p["x"] - 0.5) ** 2), use_cv=False, seed=0
        )
        best_x = result.best_trial.params["x"]
        assert all(
            -((best_x - 0.5) ** 2) >= t.mean_score for t in result.trials
        )

    def test_deterministic(self):
        f = lambda p, tr, va: p["x"]
        a = random_search(self.space(), 8, f, use_cv=False, seed=3)
        b = random_search(self.space(), 8, f, use_cv=False, seed=3)
        assert a.best == b.best
        assert [t.params for t in a.trials] == [t.params for t in b.trials]

    def test_failed_trials_score_neg_inf(self):
        def flaky(p, tr, va):
            if p["x"] > 0.5:
                raise ValueError("boom")
            return p["x"]

        result = random_search(self.space(), 10, flaky, use_cv=False, seed=1)
        for t in result.trials:
            if t.params["x"] > 0.5:
                assert t.mean_score == -math.inf
                assert t.fold_scores == []
                assert t.error == "ValueError('boom')"
            else:
                assert t.error is None
        assert result.best_trial.params["x"] <= 0.5

    def test_other_exceptions_propagate(self):
        def broken(p, tr, va):
            raise TypeError("not a trial failure")

        with pytest.raises(TypeError, match="not a trial failure"):
            random_search(self.space(), 3, broken, use_cv=False)

    def test_cv_aggregates_folds(self):
        calls = []

        def evaluate(p, tr, va):
            calls.append((tuple(tr), tuple(va)))
            return float(len(va))

        result = random_search(self.space(), 2, evaluate, folds=4, n=12, seed=0, use_cv=True)
        assert len(calls) == 8
        assert result.trials[0].mean_score == 3.0
        # the split is shared across trials
        assert calls[:4] == calls[4:]

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            random_search(self.space(), 0, lambda *a: 0.0, use_cv=False)
