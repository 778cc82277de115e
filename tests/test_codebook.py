"""Codebook construction, and the s1/s2 grid-spacing analysis it rests on."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfield import codebook
from nearfield.arraymodel import STEERING_ENTRY_ERROR, ArrayConfig, near_steering
from nearfield.codebook import CodebookConfig, angle_grid, build_codebook
from nearfield.harness import load_scenario
from tests.reference import (alpha_of, beta_of, distance_grid, per_angle_codebook,
                             s1, s2)


class TestConfig:
    def test_defaults(self):
        cfg = CodebookConfig()
        assert cfg.delta_alpha == 0.5 and cfg.delta_beta == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"delta_alpha": 0.0}, {"delta_alpha": 0.91},
        {"delta_beta": 0.0}, {"delta_beta": 2.98},
    ])
    def test_validation_bounds(self, kwargs):
        with pytest.raises(ValueError):
            CodebookConfig(**kwargs)


class TestAngleGrid:
    def test_wide_array_table_values(self, wide_array):
        grid = angle_grid(wide_array, 0.5)
        # 512 raw points; the cos=1.0 endpoint is dropped.
        assert len(grid) == 511
        assert grid[0] == pytest.approx(-255 / 256)
        assert np.allclose(np.diff(grid), 1 / 256)

    def test_tiny_array_enumeration(self):
        cfg = ArrayConfig(num_antennas=4, wavelength=0.003)
        assert np.allclose(angle_grid(cfg, 1.0), [-0.75, -0.25, 0.25, 0.75])

    def test_spacing_is_two_delta_alpha_over_m(self, desk_array):
        for da in (0.3, 0.5, 0.9):
            grid = angle_grid(desk_array, da)
            assert np.allclose(np.diff(grid), 2 * da / 64)

    def test_all_strictly_inside(self, desk_array):
        grid = angle_grid(desk_array, 0.5)
        assert np.all(np.abs(grid) < 1.0)


class TestDistanceGrid:
    def test_wide_array_broadside_values(self, wide_array):
        r = distance_grid(wide_array, np.pi / 2, 1.0)
        assert r[0] == pytest.approx(24.576)
        assert r[1] == pytest.approx(12.288)
        assert len(r) == 53
        assert r[-1] == pytest.approx(24.576 / 53)
        assert r[-1] > wide_array.min_near_distance

    def test_uniform_inverse_spacing(self, desk_array):
        theta, db = 1.1, 1.0
        r = distance_grid(desk_array, theta, db)
        expected = 2 * desk_array.wavelength * db / (
            64**2 * desk_array.spacing**2 * np.sin(theta) ** 2)
        assert np.allclose(np.diff(1.0 / r), expected)

    def test_annulus_membership(self, desk_array):
        for theta in np.linspace(0.05, np.pi - 0.05, 25):
            r = distance_grid(desk_array, theta, 1.0)
            assert np.all(r > desk_array.min_near_distance)
            assert np.all(r <= desk_array.rayleigh_distance)

    def test_degenerate_angle_keeps_far_edge(self, desk_array):
        # sin(theta) small enough that no grid point lands in the annulus.
        r = distance_grid(desk_array, 0.01, 1.0)
        assert np.array_equal(r, [desk_array.rayleigh_distance])

    def test_rejects_endpoint_angles(self, desk_array):
        for theta in (0.0, np.pi):
            with pytest.raises(ValueError):
                distance_grid(desk_array, theta, 1.0)


class TestBuildCodebook:
    @pytest.mark.parametrize("M", [2, 3, 7, 16, 64, 65, 128, 256])
    def test_bit_identical_to_per_angle_build(self, M):
        # The one-pass build against one distance_grid call per angle, over
        # wavelengths and grid steps that include degenerate grids (a lone
        # far-edge codeword) and codebooks without mirror pairs.
        for lam, da, db in itertools.product([0.003, 0.01, 0.0857],
                                             [0.37, 0.5, 0.9], [0.05, 1.0, 2.9]):
            cfg, cbcfg = ArrayConfig(num_antennas=M, wavelength=lam), \
                CodebookConfig(da, db)
            got, want = build_codebook(cfg, cbcfg), per_angle_codebook(cfg, cbcfg)
            assert got.num_twins == want.num_twins
            for name in ("theta", "r", "cos_theta", "n_theta", "n_r"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes(), (lam, da, db, name)

    def test_recount_matches_stored_size(self, desk_array):
        cb = build_codebook(desk_array, CodebookConfig())
        expected = sum(len(distance_grid(desk_array, np.arccos(c), 1.0))
                       for c in angle_grid(desk_array, 0.5))
        assert len(cb) == expected == 1083

    def test_tiny_enumerable_codebook(self):
        cfg = ArrayConfig(num_antennas=4, wavelength=0.003)
        cb = build_codebook(cfg, CodebookConfig(delta_alpha=0.9, delta_beta=1.0))
        # By hand: every angle's r1 falls below 1.2D, so each angle keeps
        # the single far-edge codeword.
        for cos_t in angle_grid(cfg, 0.9):
            theta = np.arccos(cos_t)
            r1 = cfg.num_antennas**2 * cfg.spacing**2 * np.sin(theta) ** 2 / (
                2 * cfg.wavelength)
            assert r1 < cfg.min_near_distance
        assert len(cb) == 4
        assert np.all(cb.r == cfg.rayleigh_distance)

    def test_codeword_invariants(self, desk_array):
        cb = build_codebook(desk_array, CodebookConfig())
        assert np.all((0.0 < cb.theta) & (cb.theta < np.pi))
        assert np.all((desk_array.min_near_distance < cb.r)
                      & (cb.r <= desk_array.rayleigh_distance))
        np.testing.assert_allclose(cb.cos_theta, np.cos(cb.theta), rtol=0, atol=1e-12)

    def test_grid_arrays_are_aligned_and_read_only(self, desk_array):
        cb = build_codebook(desk_array, CodebookConfig())
        cos_grid = angle_grid(desk_array, 0.5)
        for name in ("theta", "r", "cos_theta", "n_theta", "n_r"):
            arr = getattr(cb, name)
            assert arr.shape == (len(cb),) and not arr.flags.writeable
        # Codewords run angle by angle, each angle's distances together and
        # in grid order; an angle's grid is taken at arccos(|cos theta|),
        # shared by its twin.
        for n, cos_t in enumerate(cos_grid):
            sel = cb.n_theta == n
            theta = float(np.arccos(cos_t))
            grid = distance_grid(desk_array, float(np.arccos(abs(cos_t))), 1.0)
            assert np.array_equal(cb.r[sel], grid)
            assert np.array_equal(cb.n_r[sel], np.arange(sel.sum()))
            assert np.all(cb.theta[sel] == theta) and np.all(cb.cos_theta[sel] == cos_t)
        assert np.count_nonzero(np.diff(cb.n_theta)) == len(cos_grid) - 1

    def test_steering_matrix_shape_and_cache(self, desk_array):
        cb = build_codebook(desk_array, CodebookConfig())
        B = cb.steering_matrix
        assert B.shape == (64, len(cb) - cb.num_twins) == (64, 548)
        assert B.dtype == np.complex64
        # A float32 entry is within STEERING_ENTRY_ERROR of a unit-modulus
        # float64 one; that bounds its modulus too.
        assert np.allclose(np.abs(B), 1.0, rtol=0, atol=STEERING_ENTRY_ERROR)
        assert cb.steering_matrix is B

    def test_steering_columns_match_near_steering(self):
        scenario = load_scenario("scenarios/tab2_desk.json")
        cb = scenario.codebook
        B = cb.steering_matrix
        for j in range(B.shape[1]):
            col = near_steering(scenario.array, float(cb.theta[j]), float(cb.r[j]))
            assert np.abs(B[:, j] - col).max() <= STEERING_ENTRY_ERROR, j

    def test_paper_steering_matrix_is_complex64(self):
        cb = load_scenario("scenarios/tab2_paper.json").codebook
        B = cb.steering_matrix
        assert (B.dtype, B.shape) == (np.complex64, (256, 9009))
        assert round(B.nbytes / 2**20, 1) == 17.6


class TestMirrorPairs:
    """Codewords come in three blocks: the mirrored codewords (cos theta >
    0), the codewords without a twin, and the last num_twins codewords, the
    twins of the first num_twins at (-cos theta, r) in the same order. Only
    the first two blocks get steering columns."""

    @staticmethod
    def _blocks(cb):
        P = cb.num_twins
        return slice(0, P), slice(P, len(cb) - P), slice(len(cb) - P, len(cb))

    def test_twins_mirror_the_angle_and_share_the_distance(self, mirror_case):
        cb, _ = mirror_case
        mirrored, _, twins = self._blocks(cb)
        assert np.all(cb.cos_theta[mirrored] > 0.0)
        assert np.array_equal(cb.cos_theta[twins], -cb.cos_theta[mirrored])
        assert np.array_equal(cb.r[twins], cb.r[mirrored])
        assert np.array_equal(cb.n_r[twins], cb.n_r[mirrored])

    def test_pairing_is_an_involution(self, mirror_case):
        # The layout pairs block 1 with block 3 and leaves block 2 alone; a
        # codeword of block 2 has no twin because its negation is off the
        # grid (or is itself, at cos theta = 0).
        cb, _ = mirror_case
        mirrored, alone, twins = self._blocks(cb)
        index = np.arange(len(cb))
        mirror = np.concatenate([index[twins], index[alone], index[mirrored]])
        assert np.array_equal(mirror[mirror], index)
        cos_alone = cb.cos_theta[alone]
        cos_grid = angle_grid(cb.array, cb.config.delta_alpha)
        assert not np.any(np.isin(-cos_alone[cos_alone != 0.0], cos_grid))

    def test_every_codeword_stored_or_twin_of_one_stored(self, mirror_case):
        # The (n_theta, n_r) pairs, stored columns and twins together,
        # enumerate the angle-major grid exactly once.
        cb, _ = mirror_case
        cos_grid = angle_grid(cb.array, cb.config.delta_alpha)
        order = np.lexsort((cb.n_r, cb.n_theta))
        counts = np.bincount(cb.n_theta, minlength=len(cos_grid))
        assert len(counts) == len(cos_grid) and np.all(counts > 0)
        assert np.array_equal(cb.n_theta[order],
                              np.repeat(np.arange(len(counts)), counts))
        assert np.array_equal(cb.n_r[order], np.arange(len(cb)) - np.repeat(
            np.cumsum(counts) - counts, counts))
        assert np.array_equal(cb.cos_theta, cos_grid[cb.n_theta])

    def test_sizes(self, mirror_case):
        cb, sizes = mirror_case
        assert (len(cb), len(cb) - cb.num_twins, cb.num_twins) == sizes
        assert cb.steering_matrix.shape == (cb.array.num_antennas, sizes[1])

    def test_paper_cos_nonnegative_half_keeps_its_grids(self):
        # The cos theta >= 0 half takes its grids at arccos(cos theta) itself.
        cb = load_scenario("scenarios/tab2_paper.json").codebook
        cos_grid = angle_grid(cb.array, 0.5)
        for n in np.flatnonzero(cos_grid >= 0.0):
            grid = distance_grid(cb.array, float(np.arccos(cos_grid[n])), 1.0)
            assert np.array_equal(cb.r[cb.n_theta == n], grid)


class TestScanBlasThreads:
    def test_scan_restores_the_thread_count(self, desk_array):
        if codebook._blas_threads() is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        getter, setter = codebook._blas_threads()
        cb = build_codebook(desk_array, CodebookConfig())
        before = getter()
        try:
            setter(2)
            with codebook.one_blas_thread():
                assert getter() == 1
            assert getter() == 2
            cb.scores(np.ones((1, 64), dtype=complex))
            assert getter() == 2
            with pytest.raises(ValueError):  # raised by the product, 63 != 64
                cb.scores(np.ones((1, 63), dtype=complex))
            assert getter() == 2
        finally:
            setter(before)

    @pytest.mark.parametrize("count,calls", [(1, []), (3, [1, 3])])
    def test_scope_sets_nothing_at_one_thread(self, monkeypatch, count, calls):
        # In a worker forked at one thread, a setter call would rebuild
        # OpenBLAS's thread pool; at a count of 1 the scope makes none.
        made = []
        monkeypatch.setattr(codebook, "_blas_threads",
                            lambda: (lambda: count, made.append))
        with codebook.one_blas_thread():
            assert made == calls[:1]
        assert made == calls


class TestAmbiguityFunctions:
    def test_s1_values(self):
        assert s1(0.0) == 1.0
        assert s1(0.5) == pytest.approx(2 / np.pi, rel=1e-12)
        assert s1(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_s1_max_at_zero(self):
        xs = np.linspace(-5, 5, 2001)
        vals = [s1(x) for x in xs]
        assert max(vals) == pytest.approx(1.0)
        assert np.argmax(vals) == 1000

    def test_s2_values_and_symmetry(self):
        assert s2(0.0) == 1.0
        assert s2(1.0) == pytest.approx(np.hypot(0.7798934, 0.4382591), abs=1e-6)
        for b in (0.3, 1.7, 2.9):
            assert s2(b) == pytest.approx(s2(-b), rel=1e-12)

    def test_s2_max_at_zero(self):
        xs = np.linspace(-5, 5, 501)
        vals = [s2(x) for x in xs]
        assert max(vals) <= 1.0 + 1e-12
        assert vals[250] == 1.0


class TestMismatchCoordinates:
    @given(cos_a=st.floats(-0.99, 0.99), cos_b=st.floats(-0.99, 0.99))
    @settings(max_examples=30, deadline=None)
    def test_alpha_definition(self, cos_a, cos_b):
        cfg = ArrayConfig(num_antennas=64, wavelength=0.003)
        assert alpha_of(cfg, cos_a, cos_b) == pytest.approx(
            32 * (cos_a - cos_b), rel=1e-12)

    def test_beta_vanishes_at_match(self, desk_array):
        assert beta_of(desk_array, 1.0, 3.0, 3.0) == 0.0

    def test_beta_sign(self, desk_array):
        assert beta_of(desk_array, np.pi / 2, 2.0, 4.0) > 0
        assert beta_of(desk_array, np.pi / 2, 4.0, 2.0) < 0

    def test_grid_neighbors_half_cell(self, desk_array):
        # Adjacent angle codewords differ by exactly delta_alpha in alpha;
        # adjacent distance codewords by exactly delta_beta in beta.
        grid = angle_grid(desk_array, 0.5)
        assert alpha_of(desk_array, grid[1], grid[0]) == pytest.approx(0.5)
        theta = float(np.arccos(grid[40]))
        r = distance_grid(desk_array, theta, 1.0)
        if len(r) >= 2:
            assert beta_of(desk_array, theta, r[1], r[0]) == pytest.approx(
                1.0, rel=1e-9)


class TestInitialGuessGuarantee:
    def test_nearest_codeword_within_half_cell(self, desk_array):
        """Empirical coverage: random in-annulus paths land within half an
        angle cell of some codeword (away from the dropped grid edge)."""
        rng = np.random.default_rng(5)
        cb = build_codebook(desk_array, CodebookConfig())
        # The angles come from the codebook, so one it dropped would fail.
        grid = np.unique(cb.cos_theta)
        lo, hi = angle_grid(desk_array, 0.5)[[0, -1]]
        for _ in range(200):
            cos_t = rng.uniform(lo, hi)
            alpha_errs = [abs(alpha_of(desk_array, c, cos_t)) for c in grid]
            assert min(alpha_errs) <= 0.25 + 1e-9
