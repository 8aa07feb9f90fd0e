import math
import weakref

import numpy as np
import pytest

from driftgauge import (
    EmbeddingSet,
    MomentSummary,
    ProjectionBasis,
    SWDConfig,
    compute_delta,
    frechet_descriptor,
    hybrid_swd,
    mahalanobis_descriptor,
    moments,
    random_directions,
    sliced_w2,
    sliced_w2_per_slice,
    variance_log_ratios,
)
from driftgauge import descriptors, workload
from driftgauge.descriptors import build_basis
from driftgauge.errors import DimensionMismatch
from helpers import (
    exact_principal_directions,
    exact_w2_squared_1d,
    explained_variance_fraction,
    max_relative_error,
    reference_moments,
    reference_radii,
    reference_sd_sw,
    reference_sliced_w2_per_slice,
    subspace_angle,
)

# The repository's oracle tolerance (acceptance test 02).
ORACLE_REL = 1e-6


def es(rows):
    return EmbeddingSet(data=np.asarray(rows, dtype=np.float32))


def gaussian_set(n, d, seed, mean=0.0, std=1.0):
    rng = np.random.default_rng(seed)
    return EmbeddingSet(data=(mean + std * rng.standard_normal((n, d))).astype(np.float32))


class TestSWDConfig:
    def test_all_random_forbids_pca_slices(self):
        with pytest.raises(ValueError):
            SWDConfig(mode="all_random", k_pca=1, l_random=8)

    def test_all_random_needs_at_least_one_slice(self):
        with pytest.raises(ValueError):
            SWDConfig(mode="all_random", k_pca=0, l_random=0)

    def test_hybrid_needs_pca_slices(self):
        with pytest.raises(ValueError):
            SWDConfig(mode="hybrid", k_pca=0, l_random=8)

    def test_digest_binds_config_and_floor(self):
        a = SWDConfig(seed=1)
        assert a.digest(1e-8) != a.digest(1e-6)
        assert a.digest() != SWDConfig(seed=2).digest()
        assert a.digest() == SWDConfig(seed=1).digest()

    @pytest.mark.parametrize(
        "cfg, floor, hexdigest",
        [
            (SWDConfig(), 1e-8, "000c79c4ceac3caeacf127a42e0b767403fd95f4e37aec10135b4308e22af839"),
            (SWDConfig(), 1e-6, "8d1348de31bdc1396fa5ac9b4e2c5e8b5dc0b40f3076bb9de0b87b6c36a3bed0"),
            (SWDConfig.all_random(), 1e-8, "cf50206938774dc30f33654f91c4a81c2dc854f6c311204cbcc22d685b8e126f"),
            (SWDConfig.all_random(), 1e-6, "1f4e76ef92d9077f7e61aa2812a78df01475346c8ee601ea345449b537fe2f16"),
        ],
    )
    def test_digest_pinned(self, cfg, floor, hexdigest):
        # Saved meta-sets and models carry these digests; they must not move.
        assert cfg.digest(floor) == hexdigest


class TestFrechet:
    def test_identity(self):
        ms = MomentSummary(mean=np.array([1.0, 2.0]), var=np.array([0.5, 2.0]), count=3)
        assert frechet_descriptor(ms, ms) == 0.0

    def test_mean_shift_only(self):
        a = MomentSummary(mean=np.zeros(2), var=np.ones(2), count=5)
        b = MomentSummary(mean=np.array([3.0, 4.0]), var=np.ones(2), count=5)
        assert frechet_descriptor(a, b) == pytest.approx(25.0)

    def test_scale_shift_only(self):
        a = MomentSummary(mean=np.zeros(2), var=np.ones(2), count=5)
        b = MomentSummary(mean=np.zeros(2), var=np.full(2, 9.0), count=5)
        assert frechet_descriptor(a, b) == pytest.approx(8.0)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = MomentSummary(mean=rng.standard_normal(6), var=rng.uniform(0.1, 2, 6), count=4)
        b = MomentSummary(mean=rng.standard_normal(6), var=rng.uniform(0.1, 2, 6), count=4)
        assert frechet_descriptor(a, b) == pytest.approx(frechet_descriptor(b, a))

    def test_dimension_mismatch(self):
        a = MomentSummary(mean=np.zeros(2), var=np.ones(2), count=1)
        b = MomentSummary(mean=np.zeros(3), var=np.ones(3), count=1)
        with pytest.raises(DimensionMismatch):
            frechet_descriptor(a, b)

    def test_variance_log_ratio_diagnostic(self):
        a = MomentSummary(mean=np.zeros(2), var=np.array([1.0, 4.0]), count=1)
        b = MomentSummary(mean=np.zeros(2), var=np.array([np.e, 4.0]), count=1)
        assert np.allclose(variance_log_ratios(a, b), [1.0, 0.0])


class TestMahalanobis:
    def test_equal_radii(self):
        ms = MomentSummary(mean=np.zeros(2), var=np.ones(2), count=1)
        mean_r, std_r = mahalanobis_descriptor(ms, es([[3.0, 4.0], [3.0, 4.0]]))
        assert mean_r == pytest.approx(5.0)
        assert std_r == pytest.approx(0.0)

    def test_target_at_source_mean(self):
        ms = MomentSummary(mean=np.array([2.0, -1.0]), var=np.ones(2), count=1)
        mean_r, std_r = mahalanobis_descriptor(ms, es([[2.0, -1.0]]))
        assert mean_r == pytest.approx(0.0) and std_r == pytest.approx(0.0)

    def test_chi_distribution_mean(self):
        # whitened radii of standard normals follow a chi distribution with
        # D degrees of freedom: E[r] = sqrt(2) * Gamma((D+1)/2) / Gamma(D/2)
        d = 16
        target = gaussian_set(10_000, d, seed=123)
        ms = MomentSummary(mean=np.zeros(d), var=np.ones(d), count=1)
        mean_r, _ = mahalanobis_descriptor(ms, target)
        exact = math.sqrt(2) * math.exp(math.lgamma((d + 1) / 2) - math.lgamma(d / 2))
        assert mean_r == pytest.approx(exact, abs=0.05)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((40, 3)).astype(np.float32)
        ms = MomentSummary(mean=np.zeros(3), var=np.full(3, 2.0), count=1)
        a = mahalanobis_descriptor(ms, EmbeddingSet(data=data))
        b = mahalanobis_descriptor(ms, EmbeddingSet(data=data[rng.permutation(40)]))
        assert a == pytest.approx(b)


class TestRandomDirections:
    def test_unit_norms(self):
        basis = random_directions(3, 5, seed=0)
        assert np.allclose(np.linalg.norm(basis.directions, axis=1), 1.0, atol=1e-6)
        assert basis.provenance == ("random",) * 3

    def test_deterministic(self):
        a = random_directions(4, 7, seed=9)
        b = random_directions(4, 7, seed=9)
        assert np.array_equal(a.directions, b.directions)

    def test_one_dimensional(self):
        basis = random_directions(8, 1, seed=2)
        assert set(np.round(basis.directions.ravel(), 12)) <= {1.0, -1.0}


def pca_basis(data, k, seed):
    """``build_basis``'s principal directions of one set: the joint cloud of
    the set with itself, whole, and no random slices."""
    cfg = SWDConfig(k_pca=k, l_random=0, pca_subsample=2 * data.n, seed=seed)
    return build_basis(data, data, cfg)


class TestPcaDirections:
    def test_line_data_recovers_direction(self):
        rng = np.random.default_rng(1)
        line = np.linspace(-2, 2, 60)[:, None] * np.array([[3.0, 4.0, 0.0]]) / 5.0
        data = EmbeddingSet(data=line.astype(np.float32))
        basis = pca_basis(data, 1, seed=4)
        exact = exact_principal_directions(data.data, 1)
        cosine = abs(float(basis.directions[0] @ exact[0]))
        assert cosine >= 0.999

    def test_isotropic_variance_fraction(self):
        data = gaussian_set(5000, 16, seed=11)
        basis = pca_basis(data, 2, seed=5)
        frac = explained_variance_fraction(data.data, basis.directions)
        assert frac == pytest.approx(2 / 16, abs=0.05)

    def test_exact_rank_subspace(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((8, 2))
        v = rng.standard_normal((2, 4))
        data = EmbeddingSet(data=(u @ v).astype(np.float32))
        basis = pca_basis(data, 2, seed=6)
        exact = exact_principal_directions(data.data, 2)
        assert subspace_angle(basis.directions, exact) <= 1e-6

    def test_rank_deficient_padding(self):
        # rank-1 data after centering, k=2: one pca row plus one random pad
        line = np.outer(np.arange(10, dtype=np.float32), [1.0, 0.0, 0.0])
        basis = pca_basis(EmbeddingSet(data=line), 2, seed=7)
        assert basis.rank_deficient
        assert basis.provenance == ("pca", "random")
        assert np.allclose(np.linalg.norm(basis.directions, axis=1), 1.0, atol=1e-6)

    def test_orthonormal_rows(self):
        data = gaussian_set(500, 12, seed=13, std=2.0)
        basis = pca_basis(data, 5, seed=8)
        gram = basis.directions @ basis.directions.T
        assert np.allclose(gram, np.eye(5), atol=1e-8)


class TestRangeFinder:
    """``_principal_directions`` against the exact SVD subspace."""

    @staticmethod
    def run(x, k, seed):
        x = x - x.mean(axis=0)
        dirs, effective = descriptors._principal_directions(x.copy(), k, np.random.default_rng(seed))
        assert dirs.shape == (k, x.shape[1])
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        for row in dirs[:effective]:
            assert row[np.argmax(np.abs(row))] > 0
        return x, dirs, effective

    @staticmethod
    def expected_pads(seed, dim, width, count):
        """The pads come from the same stream right after the sketch draw,
        normalized once as drawn and once with the whole basis."""
        rng = np.random.default_rng(seed)
        rng.standard_normal((dim, width))
        pad = rng.standard_normal((count, dim))
        pad /= np.linalg.norm(pad, axis=1, keepdims=True)
        return pad / np.linalg.norm(pad, axis=1, keepdims=True)

    def test_well_conditioned_cloud(self):
        rng = np.random.default_rng(3)
        scales = np.r_[np.linspace(10.0, 3.0, 8), np.full(24, 0.1)]
        x, dirs, effective = self.run(rng.standard_normal((512, 32)) * scales, 8, seed=5)
        assert effective == 8
        exact = exact_principal_directions(x, 8)
        assert subspace_angle(dirs, exact) <= 1e-6
        # Distinct singular values: each direction matches its own, up to sign.
        assert np.allclose(np.abs(np.sum(dirs * exact, axis=1)), 1.0, rtol=0.0, atol=1e-9)

    def test_exactly_collinear_sketch(self):
        # Every row is a multiple of v, so every sketch column is a multiple
        # of the same vector and the sketch's Gram matrix is singular.
        v = np.array([3.0, 4.0, 0.0, 0.0, 0.0, 12.0]) / 13.0
        x, dirs, effective = self.run(np.outer(np.arange(40.0), v), 3, seed=6)
        assert effective == 1
        assert subspace_angle(dirs[:1], v[None, :]) <= 1e-12
        width = min(3 + descriptors.PCA_OVERSAMPLE, 6)
        assert np.array_equal(dirs[1:], self.expected_pads(6, 6, width, 2))

    def test_rank_deficient_cloud(self):
        # Small integers keep the rank-3 cloud exact in float32 as well.
        rng = np.random.default_rng(4)
        cloud = (rng.integers(-3, 4, (200, 3)) @ rng.integers(-3, 4, (3, 12))).astype(np.float64)
        x, dirs, effective = self.run(cloud, 5, seed=7)
        assert effective == 3
        assert subspace_angle(dirs[:3], exact_principal_directions(x, 3)) <= 1e-6
        width = min(5 + descriptors.PCA_OVERSAMPLE, 12)
        assert np.array_equal(dirs[3:], self.expected_pads(7, 12, width, 2))
        basis = pca_basis(EmbeddingSet(data=cloud.astype(np.float32)), 5, seed=7)
        assert basis.rank_deficient
        assert basis.provenance == ("pca",) * 3 + ("random",) * 2


class TestSlicedW2:
    def test_identical_sets_zero(self):
        a = gaussian_set(50, 4, seed=3)
        basis = random_directions(6, 4, seed=1)
        assert sliced_w2(a, a, basis) == 0.0

    def test_one_dimensional_pairing(self):
        a = es([[0.0], [2.0]])
        b = es([[1.0], [3.0]])
        basis = ProjectionBasis(directions=np.array([[1.0]]), provenance=("random",))
        assert sliced_w2(a, b, basis) == pytest.approx(1.0)

    def test_gaussian_closed_form_mean_shift(self):
        a = gaussian_set(20_000, 1, seed=21)
        b = gaussian_set(20_000, 1, seed=22, mean=3.0)
        basis = ProjectionBasis(directions=np.array([[-1.0]]), provenance=("random",))
        assert sliced_w2(a, b, basis) == pytest.approx(3.0, abs=0.05)

    def test_matches_assignment_oracle_equal_sizes(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            n = int(rng.integers(2, 65))
            d = int(rng.integers(1, 9))
            a = EmbeddingSet(data=rng.standard_normal((n, d)).astype(np.float32))
            b = EmbeddingSet(data=(rng.standard_normal((n, d)) + 0.5).astype(np.float32))
            basis = random_directions(3, d, seed=int(rng.integers(1 << 30)))
            per_slice = sliced_w2_per_slice(a, b, basis)
            for l in range(3):
                pa = a.data.astype(np.float64) @ basis.directions[l]
                pb = b.data.astype(np.float64) @ basis.directions[l]
                oracle = exact_w2_squared_1d(pa, pb)
                assert per_slice[l] == pytest.approx(oracle, rel=1e-6, abs=1e-12)

    def test_symmetric(self):
        a = gaussian_set(64, 5, seed=31)
        b = gaussian_set(64, 5, seed=32, mean=1.0)
        basis = random_directions(8, 5, seed=2)
        assert sliced_w2(a, b, basis) == pytest.approx(sliced_w2(b, a, basis))

    def test_translation_invariant(self):
        rng = np.random.default_rng(33)
        a = rng.standard_normal((40, 3))
        b = rng.standard_normal((40, 3)) * 1.5
        shift = rng.standard_normal(3) * 10
        basis = random_directions(5, 3, seed=3)
        before = sliced_w2(EmbeddingSet(data=a.astype(np.float32)),
                           EmbeddingSet(data=b.astype(np.float32)), basis)
        after = sliced_w2(EmbeddingSet(data=(a + shift).astype(np.float32)),
                          EmbeddingSet(data=(b + shift).astype(np.float32)), basis)
        assert after == pytest.approx(before, rel=1e-4)

    def test_negated_direction_same_per_slice(self):
        a = gaussian_set(30, 4, seed=34)
        b = gaussian_set(45, 4, seed=35, mean=0.7)
        d = random_directions(1, 4, seed=4).directions
        plus = ProjectionBasis(directions=d, provenance=("random",))
        minus = ProjectionBasis(directions=-d, provenance=("random",))
        va = sliced_w2_per_slice(a, b, plus)
        vb = sliced_w2_per_slice(a, b, minus)
        assert va[0] == pytest.approx(vb[0], rel=1e-9)

    def test_unequal_sizes_quantile_grid(self):
        # quantile alignment approaches the sorted pairing as sizes match
        a = gaussian_set(400, 1, seed=36)
        b = gaussian_set(500, 1, seed=37, mean=2.0)
        basis = ProjectionBasis(directions=np.array([[1.0]]), provenance=("random",))
        approx = sliced_w2(a, b, basis, quantiles=512)
        assert approx == pytest.approx(2.0, abs=0.15)

    def test_dimension_mismatch(self):
        a = gaussian_set(10, 3, seed=38)
        b = gaussian_set(10, 4, seed=39)
        basis = random_directions(2, 3, seed=5)
        with pytest.raises(DimensionMismatch):
            sliced_w2(a, b, basis)


class TestHybridSWD:
    def test_identical_sets_zero(self):
        a = gaussian_set(300, 8, seed=41)
        assert hybrid_swd(a, a, SWDConfig(seed=1)) == 0.0

    def test_all_random_equals_plain_sliced(self):
        a = gaussian_set(200, 6, seed=42)
        b = gaussian_set(250, 6, seed=43, mean=0.5)
        cfg = SWDConfig.all_random(12, seed=77)
        direct = sliced_w2(a, b, random_directions(12, 6, seed=77), cfg.quantiles)
        assert hybrid_swd(a, b, cfg) == pytest.approx(direct, rel=1e-12)

    def test_monotone_in_mean_shift(self):
        from scipy.stats import spearmanr

        src = gaussian_set(2000, 16, seed=44)
        values = []
        for i, delta in enumerate([0.0, 0.5, 1.0, 2.0, 4.0]):
            tgt = gaussian_set(2000, 16, seed=45 + i, mean=0.0)
            shifted = EmbeddingSet(
                data=(tgt.data + np.eye(16, dtype=np.float32)[0] * delta)
            )
            values.append(hybrid_swd(src, shifted, SWDConfig(seed=9)))
        rho = spearmanr(values, [0.0, 0.5, 1.0, 2.0, 4.0]).statistic
        assert rho == pytest.approx(1.0)

    def test_deterministic(self):
        a = gaussian_set(500, 8, seed=46)
        b = gaussian_set(700, 8, seed=47, mean=1.0)
        cfg = SWDConfig(seed=123)
        assert hybrid_swd(a, b, cfg) == hybrid_swd(a, b, cfg)

    @pytest.mark.parametrize("first_diff_row", [0, "past first block"])
    def test_equal_size_swap_gives_same_basis(self, first_diff_row):
        d = 64
        block_rows = workload._BLOCK_BYTES // (4 * d)  # float32 rows per byte block
        rng = np.random.default_rng(48)
        a = rng.standard_normal((2 * block_rows, d)).astype(np.float32)
        b = a.copy()
        start = block_rows if first_diff_row else 0
        b[start:] = rng.standard_normal((b.shape[0] - start, d)) + 1.0
        cfg = SWDConfig(k_pca=4, l_random=2, pca_subsample=256, seed=11)
        ab = build_basis(EmbeddingSet(data=a), EmbeddingSet(data=b), cfg)
        ba = build_basis(EmbeddingSet(data=b), EmbeddingSet(data=a), cfg)
        assert np.array_equal(ab.directions, ba.directions)

    def test_canonical_order_is_byte_order(self):
        # The order must stay that of comparing the raw bytes, or bases of
        # equal-size pairs (and descriptors built from them) would change.
        rng = np.random.default_rng(49)
        a = rng.standard_normal((3 * workload._BLOCK_BYTES // 64, 16)).astype(np.float32)
        cases = [(a, a.copy())]
        for row in (0, a.shape[0] // 2, a.shape[0] - 1):
            for value in (-1.0, 1.0, 1e30):
                b = a.copy()
                b[row, 5] = value
                cases += [(a, b), (b, a)]
        for x, y in cases:
            assert descriptors._bytes_greater(x, y) == (x.tobytes() > y.tobytes())

    def test_small_joint_cloud_pads_k(self):
        # fewer joint rows than k_pca: basis is topped up with random slices
        a = es([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])
        b = es([[0.0, 0.0, 1.0], [5.0, 1.0, 2.0]])
        value = hybrid_swd(a, b, SWDConfig(k_pca=8, l_random=2, seed=3))
        assert np.isfinite(value) and value >= 0


class TestBasisMemo:
    """``hybrid_swd`` keeps its basis on the target set, per config and
    source array."""

    @pytest.mark.parametrize("same_set", [False, True])
    def test_target_data_freed_after_scoring(self, same_set):
        src = gaussian_set(400, 6, seed=70)
        tgt = src if same_set else gaussian_set(300, 6, seed=71, mean=0.5)
        data = weakref.ref(tgt.data)
        compute_delta(src, tgt, SWDConfig(k_pca=3, l_random=4, seed=2))
        del tgt, src
        # Reference counting alone must free it: no cache, no cycle.
        assert data() is None

    def test_second_source_gets_its_own_basis(self):
        first = gaussian_set(500, 6, seed=72)
        second = gaussian_set(500, 6, seed=73, std=3.0)
        tgt = gaussian_set(400, 6, seed=74, mean=0.5)
        cfg = SWDConfig(k_pca=3, l_random=4, seed=5)
        bases = [build_basis(s, tgt, cfg) for s in (first, second)]
        assert not np.array_equal(bases[0].directions, bases[1].directions)
        for src, basis in zip((first, second, first), bases + bases[:1]):
            expected = sliced_w2(src, tgt, basis, cfg.quantiles)
            assert hybrid_swd(src, tgt, cfg) == expected

    def test_repeated_pair_builds_basis_once(self, monkeypatch):
        calls = []

        def counting(src, tgt, cfg):
            calls.append(cfg)
            return build_basis(src, tgt, cfg)

        monkeypatch.setattr(descriptors, "build_basis", counting)
        src = gaussian_set(500, 6, seed=75)
        tgt = gaussian_set(400, 6, seed=76, mean=0.5)
        hybrid, random = SWDConfig(k_pca=3, l_random=4, seed=6), SWDConfig.all_random(8, seed=6)
        first = [hybrid_swd(src, tgt, cfg) for cfg in (hybrid, random)]
        again = [hybrid_swd(src, tgt, cfg) for cfg in (hybrid, random)]
        assert again == first
        assert calls == [hybrid, random]


def _copy(es):
    return EmbeddingSet(data=es.data.copy())


def _curve_entries(es):
    """The set's memoized ``(centre, curves)`` pairs."""
    return [value for key, value in workload._memo(es).items() if key[0] == "curves"]


class TestSourceCurveMemo:
    """``sliced_w2_per_slice`` keeps the source's quantile curves on a
    basis's fixed slices on the source set, for unequal-size pairs only."""

    def test_fixed_rows_recorded(self):
        src = gaussian_set(300, 6, seed=80)
        tgt = gaussian_set(200, 6, seed=81)
        assert build_basis(src, tgt, SWDConfig(k_pca=3, l_random=4, seed=1)).fixed == 4
        assert build_basis(src, tgt, SWDConfig(k_pca=3, l_random=0, seed=1)).fixed == 0
        assert build_basis(src, tgt, SWDConfig.all_random(5, seed=1)).fixed == 5
        small = gaussian_set(2, 6, seed=82)
        # A joint cloud too small for k_pca: the top-up rows are not fixed.
        basis = build_basis(small, small, SWDConfig(k_pca=5, l_random=3, seed=1))
        assert basis.provenance.count("random") > 3 and basis.fixed == 3
        with pytest.raises(ValueError):
            ProjectionBasis(directions=np.eye(2), provenance=("random",) * 2, fixed=3)

    def test_miss_on_other_config_or_quantiles(self):
        src = gaussian_set(600, 6, seed=83)
        tgt = gaussian_set(250, 6, seed=84, mean=0.3)
        other = gaussian_set(180, 6, seed=85, mean=-0.2)
        calls = [
            (SWDConfig(k_pca=3, l_random=4, seed=1), 64, tgt, 1),
            (SWDConfig(k_pca=3, l_random=4, seed=2), 64, tgt, 2),
            (SWDConfig(k_pca=3, l_random=4, seed=2), 32, tgt, 3),
            (SWDConfig.all_random(4, seed=2), 32, tgt, 4),
            # A new target under a known config and Q is a hit.
            (SWDConfig(k_pca=3, l_random=4, seed=2), 32, other, 4),
        ]
        for cfg, q, target, entries in calls:
            basis = build_basis(src, target, cfg)
            got = sliced_w2_per_slice(src, target, basis, q)
            assert len(_curve_entries(src)) == entries
            np.testing.assert_array_equal(got, sliced_w2_per_slice(_copy(src), target, basis, q))
            want = reference_sliced_w2_per_slice(src.data, target.data, basis.directions, q)
            assert max_relative_error(got, want) <= ORACLE_REL

    def test_equal_sizes_never_read_the_memo(self):
        src = gaussian_set(300, 6, seed=85)
        cfg = SWDConfig(k_pca=3, l_random=4, seed=3)
        same_size = gaussian_set(300, 6, seed=86, mean=0.4)
        hybrid_swd(src, same_size, cfg)
        assert not _curve_entries(src)
        other = gaussian_set(120, 6, seed=87, mean=0.4)
        honest = hybrid_swd(src, other, cfg)
        # Poison the memo: the unequal path reads it, the equal path not.
        for _, curves in _curve_entries(src):
            curves += 1.0
        assert hybrid_swd(src, _copy(other), cfg) != honest
        assert hybrid_swd(src, _copy(same_size), cfg) == hybrid_swd(_copy(src), same_size, cfg)

    def test_cold_and_warm_match_the_plain_formula_bit_for_bit(self):
        src = gaussian_set(900, 12, seed=91)
        cfg = SWDConfig(k_pca=3, l_random=6, seed=5)
        for rows, seed in ((400, 92), (250, 93)):
            tgt = gaussian_set(rows, 12, seed=seed, mean=0.2)
            basis = build_basis(src, tgt, cfg)
            got = sliced_w2_per_slice(src, tgt, basis, cfg.quantiles)
            # The plain formula on the same kernels: float64 GEMMs on the
            # fixed rows, the centred float32 pass on the others.  The memo
            # changes neither the values nor the (F-ordered) layout the
            # means reduce over.  The centre is the float32 cast of the mean
            # that ``moments`` sums over the same float64 blocks.
            centre = moments(_copy(src)).mean.astype(np.float32)
            ((memo_centre, _),) = _curve_entries(src)
            np.testing.assert_array_equal(memo_centre, centre)
            split = basis.num_slices - basis.fixed
            parts = (
                descriptors._centred_projections(src.data, basis.directions[:split], centre),
                descriptors._sorted_projections(src.data, basis.directions[split:]),
            )
            proj_tgt = descriptors._sorted_projections(tgt.data, basis.directions)
            diff = descriptors._quantile_curves(np.vstack(parts), cfg.quantiles)
            diff -= descriptors._quantile_curves(proj_tgt, cfg.quantiles)
            assert got.tobytes() == np.mean(diff**2, axis=1).tobytes()

    def test_resident_source_freed_after_scoring(self):
        src = gaussian_set(400, 6, seed=88)
        tgt = gaussian_set(300, 6, seed=89, mean=0.5)
        data = weakref.ref(src.data)
        compute_delta(src, tgt, SWDConfig(k_pca=3, l_random=4, seed=2))
        assert _curve_entries(src)
        del src, tgt
        # Reference counting alone must free it: the curve memo holds no
        # reference to any set, and the basis memo goes with the target.
        assert data() is None

    def test_memo_is_the_only_private_key(self):
        src = gaussian_set(300, 6, seed=94)
        equal = gaussian_set(300, 6, seed=95, mean=0.3)
        unequal = gaussian_set(200, 6, seed=96, mean=0.3)
        cfg = SWDConfig(k_pca=3, l_random=4, seed=7)
        for tgt in (equal, unequal):
            compute_delta(src, tgt, cfg)
        for s in (src, equal, unequal):
            assert [key for key in vars(s) if key.startswith("_")] == ["_memo"]
        assert {key[0] for key in workload._memo(src)} == {"moments", "curves"}
        assert {key[0] for key in workload._memo(unequal)} == {"moments", "basis"}

    def test_self_distance_is_exactly_zero(self):
        a = gaussian_set(350, 6, seed=90)
        for cfg in (SWDConfig(k_pca=3, l_random=4, seed=4), SWDConfig.all_random(6, seed=4)):
            assert hybrid_swd(a, a, cfg) == 0.0


def _edge_source(kind, rng):
    """Source rows for the float32 pass's numeric edges."""
    if kind == "offset 30":
        return 30.0 + rng.standard_normal((2500, 512))
    if kind == "scale 1e-30":
        return 1e-30 * rng.standard_normal((2500, 64))
    if kind == "scale 1e37":
        # Every row sits 4e37 from the origin along a random sign pattern of
        # the all-ones direction: the leading principal direction, onto
        # which the float32 projection overflows.
        signs = rng.choice([-4.0, 4.0], size=(2500, 1))
        return 1e37 * (signs + 0.5 * rng.standard_normal((2500, 512)))
    # "3e38": the centring subtraction itself overflows in float32.
    x = rng.choice([-3e38, 3e38], p=[0.75, 0.25], size=(2500, 16))
    x[:, 0] = 3e38 * rng.uniform(-1, 1, 2500)
    return x


class TestCentredFloat32Pass:
    """The source's target-dependent slices go through a centred float32
    pass; its ``sd_sw`` stays within 1e-7 of the float64 formula, finite
    near the float32 limit, and the same bits cold and warm."""

    @pytest.mark.parametrize("kind", ["offset 30", "scale 1e-30", "scale 1e37", "3e38"])
    def test_matches_float64_reference_cold_and_warm(self, kind):
        rng = np.random.default_rng(95)
        x = _edge_source(kind, rng)
        src = EmbeddingSet(data=x.astype(np.float32))
        t = x[rng.choice(x.shape[0], 900, replace=False)]
        t[:, :8] *= 0.97
        tgt = EmbeddingSet(data=t.astype(np.float32))
        cfg = SWDConfig(seed=9)
        cold = hybrid_swd(src, tgt, cfg)
        basis = build_basis(src, tgt, cfg)
        want = reference_sd_sw(src.data, tgt.data, basis.directions, cfg.quantiles)
        assert math.isfinite(cold) and abs(cold - want) <= 1e-7 * want
        warm = hybrid_swd(src, _copy(tgt), cfg)
        fresh = hybrid_swd(_copy(src), tgt, cfg)
        assert np.float64(cold).tobytes() == np.float64(warm).tobytes() == np.float64(fresh).tobytes()

    @pytest.mark.parametrize("kind", ["scale 1e37", "3e38"])
    def test_near_limit_sources_take_the_float64_fallback(self, kind):
        x = _edge_source(kind, np.random.default_rng(95)).astype(np.float32)
        src = EmbeddingSet(data=x)
        dirs = build_basis(src, src, SWDConfig(k_pca=2, l_random=0, seed=9)).directions
        centre = moments(src).mean.astype(np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            float32_only = dirs.astype(np.float32) @ (x - centre).T
        assert not np.isfinite(float32_only).all()
        got = descriptors._centred_projections(x, dirs, centre)
        want = np.sort(dirs @ x.astype(np.float64).T, axis=1)
        assert np.isfinite(got).all()
        # Float64 rounding only; the float32 pass would err near 1e-7.
        assert max_relative_error(got, want, floor=1e-300) <= 1e-10

    def test_equal_sizes_and_fixed_slices_stay_float64(self):
        src = gaussian_set(700, 12, seed=96, mean=3.0)
        cfg = SWDConfig(k_pca=3, l_random=5, seed=10)
        for rows in (700, 300):
            tgt = gaussian_set(rows, 12, seed=97, mean=3.2)
            basis = build_basis(src, tgt, cfg)
            got = sliced_w2_per_slice(src, tgt, basis, cfg.quantiles)
            want = reference_sliced_w2_per_slice(src.data, tgt.data, basis.directions, cfg.quantiles)
            # Every equal-size slice and the fixed (random) slices of an
            # unequal pair are float64 GEMMs, within float64 rounding.
            exact = slice(None) if rows == 700 else slice(basis.num_slices - basis.fixed, None)
            assert max_relative_error(got[exact], want[exact]) <= 1e-12


class TestComputeDelta:
    def test_identity_components(self):
        a = gaussian_set(400, 8, seed=51)
        delta = compute_delta(a, a, SWDConfig(seed=2))
        assert delta.sd_f == pytest.approx(0.0, abs=1e-9)
        assert delta.sd_sw == pytest.approx(0.0, abs=1e-9)
        assert delta.euclid_mean == pytest.approx(0.0, abs=1e-9)
        ms = moments(a)
        self_radius, _ = mahalanobis_descriptor(ms, a)
        assert delta.sd_m_mean == pytest.approx(self_radius)

    def test_swap_symmetry_pattern(self):
        a = gaussian_set(300, 6, seed=52)
        b = gaussian_set(300, 6, seed=53, mean=1.0, std=2.0)
        cfg = SWDConfig(seed=3)
        ab = compute_delta(a, b, cfg)
        ba = compute_delta(b, a, cfg)
        assert ab.sd_f == pytest.approx(ba.sd_f, rel=1e-9)
        assert ab.sd_sw == pytest.approx(ba.sd_sw, rel=1e-9)
        assert ab.euclid_mean == pytest.approx(ba.euclid_mean, rel=1e-9)
        assert ab.sd_m_mean != pytest.approx(ba.sd_m_mean, rel=1e-3)

    def test_known_mean_shift(self):
        a = gaussian_set(40_000, 2, seed=54)
        b = EmbeddingSet(data=(gaussian_set(40_000, 2, seed=55).data + np.array([3.0, 4.0], dtype=np.float32)))
        delta = compute_delta(a, b, SWDConfig(seed=4))
        assert delta.sd_f == pytest.approx(25.0, abs=0.5)
        assert delta.euclid_mean == pytest.approx(5.0, abs=0.05)

    def test_components_nonnegative_finite_random_pairs(self):
        rng = np.random.default_rng(56)
        for trial in range(10):
            n = int(rng.integers(5, 200))
            m = int(rng.integers(5, 200))
            d = int(rng.integers(2, 24))
            a = EmbeddingSet(data=(rng.standard_normal((n, d)) * rng.uniform(0.1, 5)).astype(np.float32))
            b = EmbeddingSet(data=(rng.standard_normal((m, d)) * rng.uniform(0.1, 5) + rng.standard_normal(d)).astype(np.float32))
            delta = compute_delta(a, b, SWDConfig(k_pca=2, l_random=4, seed=trial))
            feats = delta.features()
            assert np.all(np.isfinite(feats)) and np.all(feats >= 0)

    def test_reused_source_bit_identical_to_fresh_copy(self):
        src = gaussian_set(700, 6, seed=60)
        cfg = SWDConfig(k_pca=3, l_random=5, pca_subsample=128, seed=7)
        compute_delta(src, gaussian_set(300, 6, seed=61), cfg)  # fills the memo
        for seed, rows in ((62, 500), (63, 700)):
            tgt = gaussian_set(rows, 6, seed=seed, mean=0.4)
            reused = compute_delta(src, tgt, cfg)
            fresh = compute_delta(EmbeddingSet(data=src.data.copy()), tgt, cfg)
            assert reused.to_dict() == fresh.to_dict()

    def test_zero_variance_source_whitens_by_the_floor(self):
        # Every source coordinate is floored to variance 1e-8, so a target
        # one unit away on each of the D=3 coordinates has radius
        # sqrt(D / floor) on every row.
        src = EmbeddingSet(data=np.zeros((50, 3), dtype=np.float32))
        tgt = EmbeddingSet(data=np.ones((40, 3), dtype=np.float32))
        delta = compute_delta(src, tgt, SWDConfig(k_pca=2, l_random=2, seed=1), 1e-8)
        assert delta.sd_m_mean == pytest.approx(math.sqrt(3 / 1e-8), rel=1e-12)
        assert delta.sd_m_mean == pytest.approx(17320.508, abs=1e-3)
        assert delta.sd_m_std == 0.0
        assert delta.sd_f == pytest.approx(3.0, rel=1e-12)

    def test_near_overflow_float32_gives_finite_features(self):
        # Float32 values near 1e30 square to about 1e60 in float64, far
        # below its overflow; a shift of 3.7e29 on each of 8 coordinates
        # puts sd_f near 8 * (3.7e29)^2 = 1.1e60.
        rng = np.random.default_rng(64)
        src = (1e30 * (1.0 + 0.1 * rng.standard_normal((300, 8)))).astype(np.float32)
        tgt = src[:200] + np.float32(3.7e29)
        delta = compute_delta(
            EmbeddingSet(data=src), EmbeddingSet(data=tgt), SWDConfig(k_pca=2, l_random=4, seed=1)
        )
        assert np.all(np.isfinite(delta.features()))
        mean_s, var_s = reference_moments(src, 1e-8)
        mean_t, var_t = reference_moments(tgt, 1e-8)
        want = np.sum((mean_t - mean_s) ** 2) + np.sum((np.sqrt(var_s) - np.sqrt(var_t)) ** 2)
        assert delta.sd_f == pytest.approx(want, rel=ORACLE_REL)
        assert delta.sd_f == pytest.approx(1.1e60, rel=0.02)

    def test_digest_recorded(self):
        a = gaussian_set(50, 3, seed=57)
        cfg = SWDConfig(k_pca=2, l_random=2, seed=5)
        delta = compute_delta(a, a, cfg, variance_floor=1e-6)
        assert delta.config_digest == cfg.digest(1e-6)

    def test_serialization_round_trip(self):
        from driftgauge import ShiftDescriptor

        a = gaussian_set(60, 4, seed=58)
        b = gaussian_set(80, 4, seed=59, mean=0.3)
        delta = compute_delta(a, b, SWDConfig(k_pca=2, l_random=2, seed=6))
        back = ShiftDescriptor.from_dict(delta.to_dict())
        assert back == delta


class TestShiftDescriptorValidation:
    FIELDS = dict(sd_f=1.0, sd_m_mean=1.0, sd_m_std=1.0, sd_sw=1.0, euclid_mean=1.0, config_digest="d")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-12])
    @pytest.mark.parametrize("name", ["sd_f", "euclid_mean"])
    def test_non_finite_or_negative_rejected(self, name, bad):
        from driftgauge import ShiftDescriptor

        with pytest.raises(ValueError):
            ShiftDescriptor(**{**self.FIELDS, name: bad})

    @pytest.mark.parametrize("value", [np.float32(1.5), np.float64(2.0), 0, 0.0])
    def test_numpy_and_python_scalars_accepted(self, value):
        from driftgauge import ShiftDescriptor

        delta = ShiftDescriptor(**{**self.FIELDS, "sd_sw": value})
        assert delta.features()[3] == float(value)


def _block_rows(dim):
    return workload._BLOCK_BYTES // (8 * dim)


def _kind_data(kind, rows, dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, dim)) * rng.uniform(0.5, 2.0, dim)
    if kind == "zero-variance columns":
        x[:, ::3] = 2.5
    elif kind == "near 1e30":
        x = 1e30 * (1.0 + 0.1 * x)
    return x.astype(np.float32)


class TestBlockBoundaries:
    """Block-wise kernels against plain float64 two-pass references, at row
    counts around one float64 row block and around four, so that sums and
    column offsets also carry across several blocks."""

    DIM = 256
    BLOCK = _block_rows(256)
    ROWS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1)
    KINDS = ("gaussian", "zero-variance columns", "near 1e30")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_moments_and_radii(self, rows, kind):
        src = EmbeddingSet(data=_kind_data(kind, rows, self.DIM, seed=70))
        tgt = EmbeddingSet(data=_kind_data(kind, rows, self.DIM, seed=71))
        ms = moments(src, 1e-8)
        mean, var = reference_moments(src.data, 1e-8)
        assert max_relative_error(ms.mean, mean) <= ORACLE_REL
        assert max_relative_error(ms.var, var) <= ORACLE_REL
        radii = reference_radii(tgt.data, mean, var)
        got = mahalanobis_descriptor(ms, tgt)
        assert max_relative_error(got, [radii.mean(), radii.std()]) <= ORACLE_REL

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_sliced_per_slice(self, rows, kind):
        src = EmbeddingSet(data=_kind_data(kind, rows, self.DIM, seed=72))
        basis = random_directions(6, self.DIM, seed=73)
        for other in (rows, 37):
            tgt = EmbeddingSet(data=_kind_data(kind, other, self.DIM, seed=74))
            got = sliced_w2_per_slice(src, tgt, basis, quantiles=64)
            want = reference_sliced_w2_per_slice(src.data, tgt.data, basis.directions, 64)
            assert max_relative_error(got, want) <= ORACLE_REL

    @pytest.mark.parametrize("rows", ROWS)
    def test_resident_source_bit_identical_to_fresh_copy(self, rows):
        src = EmbeddingSet(data=_kind_data("gaussian", rows, self.DIM, seed=75))
        cfg = SWDConfig(k_pca=3, l_random=5, seed=8)
        hybrid_swd(src, EmbeddingSet(data=_kind_data("gaussian", 40, self.DIM, seed=76)), cfg)
        tgt = EmbeddingSet(data=_kind_data("gaussian", rows + 29, self.DIM, seed=77))
        basis = build_basis(src, tgt, cfg)
        resident = sliced_w2_per_slice(src, tgt, basis, cfg.quantiles)
        fresh = sliced_w2_per_slice(EmbeddingSet(data=src.data.copy()), tgt, basis, cfg.quantiles)
        assert resident.tobytes() == fresh.tobytes()
        want = reference_sliced_w2_per_slice(src.data, tgt.data, basis.directions, cfg.quantiles)
        assert max_relative_error(resident, want) <= ORACLE_REL
