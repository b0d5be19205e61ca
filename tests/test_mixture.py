import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalpipe.boxgeom import Box
import focalpipe.mixture as mixture
from focalpipe.mixture import (
    _EXP_FAST,
    _EXP_ZERO,
    EmConfig,
    MixtureModel,
    _exp,
    _kmeanspp_indices,
    _sum_k,
    assign_clusters,
    featurize,
    fit_em,
    num_focal_regions,
    posterior,
)
from focalpipe.scenes import SceneSpec, generate_scene

from reference_mixture import (
    box_centers,
    grid_points,
    ref_assign_clusters,
    ref_fit_em,
    ref_kmeanspp_indices,
    ref_posterior,
)
from test_scenes import DENSE_SPEC, claims


class TestNumFocalRegions:
    @pytest.mark.parametrize("n,expected", [(4, 4), (16, 6), (256, 10), (902, 11)])
    def test_formula(self, n, expected):
        assert num_focal_regions(n) == expected

    @pytest.mark.parametrize("n", [1, 2])
    def test_clamped_to_n(self, n):
        assert num_focal_regions(n) == n

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="no ground truth"):
            num_focal_regions(0)

    def test_monotone_and_bounded(self):
        prev = 0
        for n in range(1, 2000):
            k = num_focal_regions(n)
            assert k >= prev and k <= n
            prev = k


class TestFeaturize:
    def test_box_on_single_grid_point(self):
        # the lone grid point is the image center (50, 50)
        vec = featurize([Box(40, 40, 60, 60)], grid_points(1, 1, 100, 100))[0]
        assert np.allclose(vec, 0.0)

    def test_identical_boxes_identical_vectors(self):
        grid = grid_points(4, 4, 200, 100)
        b = Box(10, 10, 30, 30)
        f = featurize([b, b], grid)
        assert np.array_equal(f[0], f[1])

    def test_translation_equivariance(self):
        grid = grid_points(3, 5, 400, 300)
        boxes = [Box(10, 10, 40, 30), Box(100, 120, 180, 200)]
        base = featurize(boxes, grid)
        shifted = featurize([b.translate(1.0, 0.0) for b in boxes], grid)
        delta = shifted - base
        assert np.allclose(delta[:, 0::2], 1.0)
        assert np.allclose(delta[:, 1::2], 0.0)

    def test_dimension(self):
        assert featurize([Box(0, 0, 1, 1)], grid_points(4, 4, 100, 100)).shape == (1, 32)


def two_cluster_data(rng, n_per=50, sep=50.0, dim=2):
    a = rng.normal(0.0, 1.0, size=(n_per, dim))
    b = rng.normal(sep, 1.0, size=(n_per, dim))
    x = np.vstack([a, b])
    labels = [0] * n_per + [1] * n_per
    return x, labels


class TestFitEm:
    def test_single_component_fixed_point(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, size=(40, 3))
        model = fit_em(x, 1, EmConfig(rng_seed=1, covariance_floor=1e-6))
        assert model.weights == pytest.approx([1.0])
        assert np.allclose(model.means[0], x.mean(axis=0), atol=1e-9)

    def test_two_separated_clusters_recovered(self):
        rng = np.random.default_rng(7)
        x, _ = two_cluster_data(rng)
        model = fit_em(x, 2, EmConfig(rng_seed=7, covariance_floor=1e-3))
        means = sorted(model.means[:, 0])
        assert abs(means[0] - 0.0) < 0.5
        assert abs(means[1] - 50.0) < 0.5
        assert model.weights == pytest.approx([0.5, 0.5], abs=0.05)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        x, _ = two_cluster_data(rng)
        m1 = fit_em(x, 2, EmConfig(rng_seed=42))
        m2 = fit_em(x, 2, EmConfig(rng_seed=42))
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.means, m2.means)
        assert np.array_equal(m1.variances, m2.variances)

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            x = rng.normal(0.0, 10.0, size=(30, 4))
            model = fit_em(x, 3, EmConfig(rng_seed=trial, restarts=1))
            diffs = np.diff(model.ll_history)
            assert np.all(diffs >= -1e-8)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 5.0, size=(25, 2))
        model = fit_em(x, 4, EmConfig(rng_seed=5))
        assert abs(model.weights.sum() - 1.0) < 1e-9

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_em(np.zeros((2, 2)), 3, EmConfig())

    def test_non_finite_rejected(self):
        x = np.zeros((5, 2))
        x[0, 0] = math.inf
        with pytest.raises(ValueError):
            fit_em(x, 1, EmConfig())

    @pytest.mark.parametrize("shape", [(5, 0), (0, 0)])
    def test_zero_columns_rejected(self, shape):
        """A feature vector with no entries is the caller's error, named before any work."""
        with pytest.raises(ValueError, match="non-empty vectors"):
            fit_em(np.zeros(shape), 2, EmConfig())

    @pytest.mark.parametrize("power", [0.0, -2.0, math.inf, math.nan])
    def test_bad_density_power_rejected(self, power):
        with pytest.raises(ValueError, match="density_power"):
            fit_em(np.zeros((5, 2)), 1, EmConfig(), density_power=power)

    def test_squared_distance_overflow_rejected(self):
        """Features 1e160 apart overflow the k-means++ squared distances: `fit_em` says so
        before a weighted draw from the non-finite distances, and numpy warns of nothing."""
        x = np.array([[0.0, 5.0], [1e160, 5.0], [3.0, 5.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(5):
                with pytest.raises(ValueError, match="overflow"):
                    fit_em(x, 2, EmConfig(rng_seed=seed))

    @pytest.mark.parametrize("k, x", [
        (1, [[0.0, 5.0], [1e160, 5.0], [3.0, 5.0]]),  # k = 1 draws no k-means++ distances
        (2, [[1e308, 5.0]] * 3),  # the distances are 0, but the mean's sum overflows
    ])
    def test_initial_variance_overflow_rejected(self, k, x):
        """The initial variances overflow: `fit_em` raises the error the k-means++ check
        raises, rather than returning an all-NaN model, and numpy warns of nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="squared distances between features overflow float64"):
                fit_em(np.array(x), k, EmConfig())


def diagonal_density(x, mean, var):
    """Independent scalar-Gaussian product, evaluated one dimension at a time."""
    out = 1.0
    for xi, mi, vi in zip(x, mean, var):
        out *= math.exp(-((xi - mi) ** 2) / (2 * vi)) / math.sqrt(2 * math.pi * vi)
    return out


class TestPosterior:
    def test_single_component(self):
        model = MixtureModel(
            weights=np.array([1.0]),
            means=np.array([[0.0, 0.0]]),
            variances=np.array([[1.0, 1.0]]),
        )
        p = posterior(model, [3.0, -1.0])
        assert p.probs == pytest.approx([1.0])
        assert not p.nearest_mean_fallback

    def test_midpoint_symmetry(self):
        model = MixtureModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-4.0, 0.0], [4.0, 0.0]]),
            variances=np.array([[1.0, 1.0], [1.0, 1.0]]),
        )
        p = posterior(model, [0.0, 0.0])
        assert p.probs == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_matches_scalar_density_oracle(self):
        x = [2.0, 0.0, 0.0]
        for power in (1.0, 3.0):
            model = MixtureModel(
                weights=np.array([0.3, 0.7]),
                means=np.array([[1.0, -2.0, 0.5], [4.0, 1.0, -1.0]]),
                variances=np.array([[0.5, 2.0, 1.0], [1.5, 0.25, 3.0]]),
                density_power=power,
            )
            num = [w * diagonal_density(x, m, v) ** power
                   for w, m, v in zip(model.weights, model.means, model.variances)]
            expected = np.array(num) / sum(num)
            assert posterior(model, x).probs == pytest.approx(expected, abs=1e-9)

    def test_underflow_falls_back_to_nearest_mean(self):
        model = MixtureModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0], [1e6]]),
            variances=np.array([[1e-12], [1e-12]]),
        )
        p = posterior(model, [4e5])
        assert p.nearest_mean_fallback
        assert p.probs == pytest.approx([1.0, 0.0])

    def test_dimension_mismatch(self):
        model = MixtureModel(
            weights=np.array([1.0]),
            means=np.array([[0.0, 0.0]]),
            variances=np.array([[1.0, 1.0]]),
        )
        with pytest.raises(ValueError):
            posterior(model, [1.0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        k, d = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        w = rng.uniform(0.1, 1.0, k)
        model = MixtureModel(
            weights=w / w.sum(),
            means=rng.normal(0, 10, (k, d)),
            variances=rng.uniform(0.1, 5.0, (k, d)),
        )
        p = posterior(model, rng.normal(0, 10, d))
        assert abs(p.probs.sum() - 1.0) < 1e-9
        assert np.all(p.probs >= 0) and np.all(p.probs <= 1)

    def test_one_row_stays_on_plain_exp(self, monkeypatch):
        """On one row the split `_exp` costs more than it saves; `posterior` keeps `np.exp`."""
        def split_exp(a):
            raise AssertionError("one-row posterior went through the split exp")

        monkeypatch.setattr(mixture, "_exp", split_exp)
        model = MixtureModel(weights=np.array([0.5, 0.5]), means=np.array([[0.0], [9.0]]),
                             variances=np.array([[1.0], [1.0]]))
        assert posterior(model, [1.0]).probs.argmax() == 0


class TestAssignClusters:
    def test_k1_all_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (10, 2))
        model = fit_em(x, 1, EmConfig(rng_seed=0))
        assert assign_clusters(model, x) == [0] * 10

    def test_recovers_generating_labels(self):
        rng = np.random.default_rng(1)
        x, labels = two_cluster_data(rng)
        model = fit_em(x, 2, EmConfig(rng_seed=1, covariance_floor=1e-3))
        got = assign_clusters(model, x)
        direct = sum(a == b for a, b in zip(got, labels))
        flipped = sum(a != b for a, b in zip(got, labels))
        assert max(direct, flipped) == len(labels)

    def test_tie_breaks_to_lowest_index(self):
        model = MixtureModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-3.0], [3.0]]),
            variances=np.array([[1.0], [1.0]]),
        )
        assert assign_clusters(model, [[0.0]]) == [0]

    def test_argmax_invariant_to_weight_rescaling(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 5, (20, 2))
        w = rng.uniform(0.1, 1.0, 3)
        base = MixtureModel(
            weights=w / w.sum(),
            means=rng.normal(0, 5, (3, 2)),
            variances=rng.uniform(0.5, 2.0, (3, 2)),
        )
        scaled = MixtureModel(
            weights=base.weights * 7.0,  # unnormalized on purpose
            means=base.means,
            variances=base.variances,
        )
        assert assign_clusters(base, x) == assign_clusters(scaled, x)

    @given(st.integers(0, 10_000), st.floats(0.1, 32.0).filter(lambda p: p != 1.0))
    @settings(max_examples=50, deadline=None)
    def test_batched_equals_per_row_posterior(self, seed, power):
        rng = np.random.default_rng(seed)
        k, d = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        w = rng.uniform(0.1, 1.0, k)
        model = MixtureModel(
            weights=w / w.sum(),
            means=rng.normal(0, 10, (k, d)),
            variances=rng.uniform(0.1, 5.0, (k, d)),
            density_power=power,
        )
        # rows 1e4 from every mean: the mixture density underflows to zero
        far = rng.normal(0, 10, (5, d)) + rng.choice([-1e4, 1e4], (5, d))
        x = np.vstack([rng.normal(0, 10, (30, d)), far])
        expected = [ref_posterior(model, row) for row in x]
        assert all(p.nearest_mean_fallback for p in expected[30:])
        for row, want in zip(x, expected):
            got = posterior(model, row)
            assert got.probs.tobytes() == want.probs.tobytes()
            assert got.nearest_mean_fallback == want.nearest_mean_fallback
        assert assign_clusters(model, x) == [int(np.argmax(p.probs)) for p in expected]

    @given(st.integers(0, 10_000), st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_one_row_equals_its_row_in_a_batch(self, seed, d):
        """`posterior` on one row gives the bits that row gets among many, at any d."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 12))
        w = rng.uniform(0.1, 1.0, k)
        # wide components, so no probability saturates at 0 or 1 and every last bit shows
        model = MixtureModel(weights=w / w.sum(), means=rng.normal(0, 1, (k, d)),
                             variances=rng.uniform(20.0, 50.0, (k, d)))
        x = rng.normal(0, 1, (20, d))
        batch = mixture._posteriors(model, x)[0]
        for row, want in zip(x, batch):
            assert posterior(model, row).probs.tobytes() == want.tobytes()

    def test_empty_and_mismatched_features(self):
        model = MixtureModel(
            weights=np.array([1.0]),
            means=np.array([[0.0, 0.0]]),
            variances=np.array([[1.0, 1.0]]),
        )
        assert assign_clusters(model, []) == []
        with pytest.raises(ValueError):
            assign_clusters(model, [[1.0], [2.0]])

    @pytest.mark.parametrize("weights,label", [([1.0], 0), ([0.25, 0.75], 1), ([0.5, 0.5], 0)])
    def test_zero_dimension_model(self, weights, label):
        """With no dimensions every density is 1: the posterior is the weights and every row
        goes to the heaviest component, on one row and on many."""
        k = len(weights)
        model = MixtureModel(weights=np.array(weights), means=np.zeros((k, 0)),
                             variances=np.zeros((k, 0)))
        got = posterior(model, [])
        assert got.probs.tolist() == pytest.approx(weights) and not got.nearest_mean_fallback
        assert assign_clusters(model, np.zeros((3, 0))) == [label] * 3


def assert_same_fit(got, want, case=None):
    for name in ("weights", "means", "variances"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (case, name)
    assert got.ll_history == want.ll_history, case
    assert got.log_likelihood == want.log_likelihood, case


class TestEmEqualsReference:
    """The per-dimension, lockstep EM against the (n, k, d), one-restart-at-a-time
    forms of `reference_mixture`: every float of the fit bit for bit, and the same
    labels and rng draws."""

    @pytest.mark.parametrize("spec,n_scenes", [(claims.IBS_SCENE, 200), (DENSE_SPEC, 20)],
                             ids=["ablation", "dense"])
    def test_fit_and_labels_bit_equal(self, spec, n_scenes):
        for seed in range(n_scenes):
            scene = generate_scene(SceneSpec(rng_seed=seed, **spec))
            centers = box_centers([b for b, _ in scene.annotations])
            k, em = num_focal_regions(len(centers)), EmConfig(rng_seed=seed)
            got = fit_em(centers, k, em, density_power=16)
            want = ref_fit_em(centers, k, em, density_power=16)
            assert_same_fit(got, want, seed)
            assert assign_clusters(got, centers) == ref_assign_clusters(want, centers), seed

    @given(st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
           st.integers(1, 3), st.integers(1, 5), st.integers(1, 80),
           st.sampled_from([1.0, 16.0]), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_random_fits_bit_equal(self, nk, dim, restarts, max_iterations, power, duplicate,
                                   seed):
        (n, k), rng = nk, np.random.default_rng(seed)
        x = rng.normal(0, rng.choice([1.0, 30.0, 300.0]), (n, dim))
        if duplicate:
            x[rng.integers(n, size=n // 2 + 1)] = x[rng.integers(n)]
        em = EmConfig(rng_seed=seed, restarts=restarts, max_iterations=max_iterations)
        assert_same_fit(fit_em(x, k, em, power), ref_fit_em(x, k, em, power))

    @pytest.mark.parametrize("power", [1.0, 16.0])
    def test_one_component_bit_equal(self, power):
        """At k = 1 einsum sums an (n, 1) operand in another order than at k > 1."""
        rng = np.random.default_rng(3)
        for seed in range(100):
            x = rng.normal(0, 30, (int(rng.integers(1, 61)), 2))
            em = EmConfig(rng_seed=seed)
            assert_same_fit(fit_em(x, 1, em, power), ref_fit_em(x, 1, em, power), seed)

    @pytest.mark.parametrize("case", ["distinct", "three-points-k5", "all-identical"])
    def test_kmeanspp_same_draws(self, case):
        rng = np.random.default_rng(5)
        x = {"distinct": rng.normal(0, 50, (40, 2)),
             "three-points-k5": np.repeat(rng.normal(0, 50, (3, 2)), 4, axis=0),
             "all-identical": np.full((10, 2), 3.0)}[case]
        for seed in range(20):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _kmeanspp_indices(x, 5, [got_rng])
            assert got.tolist() == [ref_kmeanspp_indices(x, 5, want_rng)]
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestKmeansppLockstep:
    """`_kmeanspp_indices` seeds every restart in one pass, each as on its own."""

    @pytest.mark.parametrize("case", ["distinct", "distinct-1000", "three-points-k5",
                                      "underflowing-points-k5", "all-identical"])
    @pytest.mark.parametrize("restarts", [1, 2, 3, 4])
    def test_kmeanspp_lockstep_equals_one_restart_at_a_time(self, case, restarts):
        """Seeding all restarts in lockstep gives each restart the indices and generator
        state of `ref_kmeanspp_indices` run on its generator alone."""
        rng = np.random.default_rng(6)
        # 0, 1e-162 and 2e-162 apart: only the end points' squared distance is not 0, so a
        # restart that picks the middle point first meets `total <= 0` a step before the rest
        near = np.array([[0.0, 5.0], [1e-162, 5.0], [2e-162, 5.0]])
        x, k = {"distinct": (rng.normal(0, 50, (40, 2)), 5),
                "distinct-1000": (rng.normal(0, 50, (1000, 3)), 9),  # pairwise row sums
                "three-points-k5": (np.repeat(rng.normal(0, 50, (3, 2)), 4, axis=0), 5),
                "underflowing-points-k5": (np.repeat(near, 4, axis=0), 5),
                "all-identical": (np.full((10, 2), 3.0), 5)}[case]
        first_zero_total = []  # per call, the first step each restart drew with total <= 0
        for seed in range(12):
            seeds = np.random.SeedSequence(seed).spawn(restarts)
            got_rngs, want_rngs = ([np.random.default_rng(s) for s in seeds] for _ in "ab")
            got = _kmeanspp_indices(x, k, got_rngs)
            want = [ref_kmeanspp_indices(x, k, r) for r in want_rngs]
            assert got.shape == (restarts, k) and got.tolist() == want
            for got_rng, want_rng in zip(got_rngs, want_rngs):
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
            first_zero_total.append([next((s for s in range(1, k) if not np.any(np.min(
                ((x[:, None] - x[row[:s]]) ** 2).sum(axis=2), axis=1))), k) for row in want])
        steps = {s for call in first_zero_total for s in call}
        if case != "distinct" and case != "distinct-1000":
            assert min(steps) < k
        if case == "underflowing-points-k5":
            assert steps == {1, 2}
            assert restarts == 1 or any(len(set(call)) > 1 for call in first_zero_total)

    def test_top_uniform_draw_picks_a_row(self):
        """Squared distances 0, 1, 0, 4, 0, 1, 1 over their total of 7 cumsum to 1 - 2**-52,
        so the cdf is normalized, as `Generator.choice` does, before the largest uniform draw
        `Generator.random` can return, 1 - 2**-53, is looked up: it picks the last row."""

        class TopDraw:
            def integers(self, n):
                return 0

            def random(self):
                return 1.0 - 2.0**-53

        x = np.array([[1.0, 0.0], [0, 0], [1, 0], [3, 0], [1, 0], [0, 0], [2, 0]])
        assert _kmeanspp_indices(x, 2, [TopDraw(), TopDraw()]).tolist() == [[0, 6], [0, 6]]

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_kmeanspp_overflow_rejected(self, restarts):
        x = np.array([[0.0, 0.0], [1e160, 0.0], [2.0, 1.0]])
        rngs = [np.random.default_rng(s) for s in range(restarts)]
        with pytest.raises(ValueError, match="overflow float64"):
            _kmeanspp_indices(x, 2, rngs)
        with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
            ref_kmeanspp_indices(x, 2, np.random.default_rng(0))


class TestSumK:
    """`_sum_k` over the k planes of (..., k, n) against numpy's own reduce over the
    contiguous last axis of the (..., n, k) copy, bit for bit."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bit_equal_to_contiguous_sum(self, seed):
        rng = np.random.default_rng(seed)
        # one NaN: the one inf - inf makes. Which of two different NaNs an add keeps
        # follows the compiler's operand order, not the order of the sum
        with np.errstate(invalid="ignore"):
            nan = np.subtract(np.inf, np.inf)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, nan])
        pools = [special[:5], special, special[1:2]]  # the last gives sums of -0.0 alone
        for k in [*range(1, 301), 511, 512, 513]:
            n = int(rng.integers(1, 5))
            nk = rng.normal(0, 1, (2, n, k)) * 10.0 ** rng.integers(-320, 308, (2, n, k))
            mix = rng.random((2, n, k)) < rng.choice([0.0, 0.02, 0.3, 1.0])
            nk[mix] = rng.choice(pools[rng.integers(3)], np.count_nonzero(mix))
            with np.errstate(over="ignore", invalid="ignore"):
                want = nk.sum(axis=-1)
                got = _sum_k(np.ascontiguousarray(nk.transpose(0, 2, 1)))
            assert got.tobytes() == want.tobytes(), (seed, k, n)

    @pytest.mark.parametrize("k", [8, 9, 16, 17, 127, 128, 129, 300])
    def test_one_column(self, k):
        """At n = 1 the k axis of the (..., 1, k) copy is contiguous too: the pairwise loop,
        not a plain reduce over k, gives numpy's order there."""
        rng = np.random.default_rng(k)
        nk = rng.normal(0, 1, (3, 1, k)) * 10.0 ** rng.integers(-20, 20, (3, 1, k))
        want = nk.sum(axis=-1)
        assert _sum_k(np.ascontiguousarray(nk.transpose(0, 2, 1))).tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [129, 200])
    def test_fit_above_128_components_bit_equal(self, k):
        """Above 128 components numpy's pairwise sum over k splits into halves: `fit_em`
        against `ref_fit_em` there, beyond the k <= 60 of the random fits."""
        rng = np.random.default_rng(k)
        x = rng.normal(0, 300, (2 * k, 2))
        em = EmConfig(rng_seed=k, max_iterations=15)
        assert_same_fit(fit_em(x, k, em, 16.0), ref_fit_em(x, k, em, 16.0))


class TestExp:
    """`_exp`, the E-step's split `np.exp`, against `np.exp` itself."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 1), (40, 7), (3, 40, 7), (5, 1, 2)]))
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_np_exp(self, seed, shape):
        rng = np.random.default_rng(seed)
        size = int(np.prod(shape))
        nan = np.array([np.nan])
        pool = np.concatenate([
            rng.uniform(-708.0, 710.0, size),  # normal results, and overflow to inf
            rng.uniform(-745.2, -708.3, size),  # subnormal results
            rng.uniform(-2000.0, -745.0, size),  # results that underflow to zero
            [np.inf, -np.inf, -0.0, _EXP_FAST, _EXP_ZERO, np.nextafter(_EXP_ZERO, 0)],
            nan, -nan, (nan.view(np.uint64) | np.uint64(12345)).view(float),
        ])
        a = rng.choice(pool, shape)
        with np.errstate(over="ignore"):
            want = np.exp(a).tobytes()
            assert _exp(a).tobytes() == want
            assert _exp(a.T).tobytes() == np.exp(a.T).tobytes()
            out = np.full(shape, 7.0)
            assert _exp(a, out=out) is out and out.tobytes() == want
            # written over its own argument: the band must be read before the overwrite
            b = a.copy()
            assert _exp(b, out=b) is b and b.tobytes() == want

    def test_np_exp_is_positive_zero_below_threshold(self):
        """`_exp` returns +0.0 below `_EXP_ZERO` without calling `np.exp`: this numpy must
        agree, on a fine grid down to -1e4 and on the 10^5 doubles just below it."""
        edge = (np.float64(_EXP_ZERO).view(np.uint64) + np.arange(1, 100_001, dtype=np.uint64))
        below = np.concatenate([np.linspace(-1e4, _EXP_ZERO, 1_000_001)[:-1], edge.view(float),
                                [-1e300, -np.finfo(float).max, -np.inf]])
        assert np.all(below < _EXP_ZERO)
        assert np.all(np.exp(below).view(np.uint64) == 0)
