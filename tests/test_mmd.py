import itertools
import os
import signal
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from levy_sigkernel import _forks, kernel_solver
from levy_sigkernel import mmd as mmd_module
from levy_sigkernel import tensor_algebra as ta
from levy_sigkernel.characteristics import characteristic_velocity, factor_covariance
from levy_sigkernel.development import develop
from levy_sigkernel.errors import InvalidParameter, InvalidTriplet, NumericalInconsistency
from levy_sigkernel.kernel_solver import (_solve_truncated_batch, make_grid,
                                          solve_goursat_scalar)
from levy_sigkernel.mmd import AugmentedPathEnsemble, WienerSpec, mmd_to_wiener

from conftest import mixed_corner_batch, open_fds

I0_1 = 1.2660658777520084


def antisym(m):
    m = np.asarray(m, dtype=float)
    return m - m.T


def make_ensemble(rng, dim, n_paths, grid, scale=0.8, with_area=True):
    n_int = len(grid) - 1
    derivs = [rng.uniform(-1, 1, size=(n_int, dim)) * scale for _ in range(n_paths)]
    areas = None
    area_derivs = []
    for _ in range(n_paths):
        if with_area:
            area_derivs.append(np.stack([antisym(rng.uniform(-1, 1, size=(dim, dim)))
                                         * scale * 0.4 for _ in range(n_int)]))
        else:
            area_derivs.append(None)
    return AugmentedPathEnsemble(dim=dim, time_grid=np.asarray(grid, float),
                                 derivs=derivs, area_derivs=area_derivs)


def surface(ensemble, key, points, wiener=None):
    """The surface ``key`` of ``mmd_to_wiener``'s report, solved in full when
    read; by default against a standard Wiener measure, whose one interval
    adds no breakpoint to the grid."""
    if wiener is None:
        wiener = WienerSpec(ensemble.dim, np.array([0.0, ensemble.horizon]),
                            [np.eye(ensemble.dim)])
    return mmd_to_wiener(ensemble, wiener, points)[1].surfaces[key]


def wiener_expected_signature(wiener, t, depth):
    return develop(characteristic_velocity(wiener.as_triplet(), 2), 0.0, t, depth)


def direct_mmd_squared(ensemble, wiener, depth):
    """Independent oracle: Hilbert norm of the mean-embedding difference,
    computed from truncated developments."""
    sigs = []
    for k in range(ensemble.n_paths):
        v = characteristic_velocity(ensemble.path_triplet(k), 2)
        sigs.append(develop(v, 0.0, ensemble.horizon, depth))
    mean = sigs[0] * (1.0 / ensemble.n_paths)
    for s in sigs[1:]:
        mean = mean + s * (1.0 / ensemble.n_paths)
    diff = mean - wiener_expected_signature(wiener, ensemble.horizon, depth)
    return ta.inner_product(diff, diff)


class TestValidation:
    def test_area_antisymmetry_enforced(self):
        with pytest.raises(InvalidTriplet):
            AugmentedPathEnsemble(dim=2, time_grid=np.array([0.0, 1.0]),
                                  derivs=[np.zeros((1, 2))],
                                  area_derivs=[np.eye(2)[None]])

    def test_dims_must_agree(self, rng):
        ens = make_ensemble(rng, 2, 1, [0.0, 1.0])
        wn = WienerSpec(1, np.array([0.0, 1.0]), [np.eye(1)])
        with pytest.raises(InvalidParameter):
            mmd_to_wiener(ens, wn, 9)

    @pytest.mark.parametrize("factor", [[5.0], ["abc"], [], [1.0, np.nan]],
                             ids=["short", "non-numeric", "empty", "nan"])
    def test_factor_must_be_finite_dim_vector(self, factor):
        with pytest.raises(InvalidParameter):
            factor_covariance(2, [factor])

    def test_factor_construction(self):
        cov = factor_covariance(2, [[1.0, 0.0], [0.0, 2.0]])
        assert np.allclose(cov, np.diag([1.0, 4.0]))

    # each value's corner on a grid of ``points`` points: the MMD, and the
    # cross and pair surfaces read from its report
    CORNERS = {
        "mmd_to_wiener": lambda ens, wn, points: mmd_to_wiener(ens, wn, points)[0],
        "cross_kernel": lambda ens, wn, points: surface(ens, ("cross", 1), points,
                                                        wn).w[-1, -1],
        "pair_kernel": lambda ens, wn, points: surface(ens, ("pair", 0, 1), points,
                                                       wn).w[-1, -1],
    }

    @pytest.mark.parametrize("points", [17.9, np.float64(17.5), True],
                             ids=["float", "numpy_float", "bool"])
    @pytest.mark.parametrize("entry", sorted(CORNERS))
    def test_point_count_must_be_an_integer(self, rng, entry, points):
        # a float count used to be cut to an integer without a word
        ens, wn = mmd_problem(rng, 2)
        with pytest.raises(InvalidParameter, match="integer"):
            self.CORNERS[entry](ens, wn, points)

    @pytest.mark.parametrize("entry", sorted(CORNERS))
    def test_numpy_integer_point_count(self, rng, entry):
        ens, wn = mmd_problem(rng, 2)
        got = self.CORNERS[entry](ens, wn, np.int64(17))
        assert got.hex() == self.CORNERS[entry](ens, wn, 17).hex()


class TestCrossKernel:
    def test_pure_area_path_gives_one(self, rng):
        grid = [0.0, 0.5, 1.0]
        ens = make_ensemble(rng, 2, 1, grid, with_area=True)
        ens.derivs[0][:] = 0.0
        wn = WienerSpec(2, np.array([0.0, 1.0]), [np.eye(2)])
        surf = surface(ens, ("cross", 0), 33, wn)
        assert np.abs(surf.w - 1.0).max() < 1e-10

    def test_degenerate_wiener_gives_one(self, rng):
        ens = make_ensemble(rng, 2, 1, [0.0, 1.0])
        wn = WienerSpec(2, np.array([0.0, 1.0]), [np.zeros((2, 2))])
        surf = surface(ens, ("cross", 0), 17, wn)
        assert np.abs(surf.w - 1.0).max() < 1e-12

    def test_boundary_field_is_path_integral(self, rng):
        ens = make_ensemble(rng, 2, 1, [0.0, 0.5, 1.0], with_area=True)
        wn = WienerSpec(2, np.array([0.0, 1.0]), [np.eye(2)])
        surf = surface(ens, ("cross", 0), 33, wn)
        # f(s, 0) = int_0^s b_k; check at the far corner of the t=0 row
        expected = 0.5 * ens.derivs[0][0] + 0.5 * ens.derivs[0][1]
        assert np.allclose(surf.f[-1, 0], expected, atol=1e-12)
        assert np.abs(surf.f[0]).max() == 0.0   # f(0, t) = 0

    def test_matches_development_inner_product(self, rng):
        # d = 1 drifting path against a standard BM, Dyson-type low order
        grid = np.array([0.0, 1.0])
        ens = AugmentedPathEnsemble(dim=1, time_grid=grid,
                                    derivs=[np.array([[1.0]])], area_derivs=[None])
        wn = WienerSpec(1, grid, [np.eye(1)])
        surf = surface(ens, ("cross", 0), 257, wn)
        sig = develop(characteristic_velocity(ens.path_triplet(0), 2), 0, 1, 12)
        esig = wiener_expected_signature(wn, 1.0, 12)
        ref = ta.inner_product(sig, esig)
        assert abs(surf.value() - ref) / abs(ref) < 1e-3


class TestPairKernel:
    def test_zero_paths(self, rng):
        ens = AugmentedPathEnsemble(dim=2, time_grid=np.array([0.0, 1.0]),
                                    derivs=[np.zeros((1, 2))] * 2,
                                    area_derivs=[None, None])
        surf = surface(ens, ("pair", 0, 1), 9)
        assert np.all(surf.w == 1.0)

    def test_area_free_reduces_to_classical_goursat(self, rng):
        grid = np.array([0.0, 1.0])
        b0, b1 = np.array([[0.8, -0.3]]), np.array([[0.2, 0.9]])
        ens = AugmentedPathEnsemble(dim=2, time_grid=grid, derivs=[b0, b1],
                                    area_derivs=[None, None])
        surf = surface(ens, ("pair", 0, 1), 65)
        alpha = float(b0[0] @ b1[0])
        g = surf.s_grid
        ref = solve_goursat_scalar((lambda s: alpha, lambda t: 1.0), g, g)
        assert np.abs(surf.w - ref.w).max() < 1e-12

    def test_pure_area_pair_is_scalar_goursat(self, rng):
        # with b = 0 the pair kernel is the Goursat solution with
        # alpha = <area_j, area_k> (no quarter factor)
        grid = np.array([0.0, 1.0])
        a1 = antisym([[0.0, 0.7], [0.0, 0.0]])
        a2 = antisym([[0.0, -0.2], [0.0, 0.0]])
        ens = AugmentedPathEnsemble(dim=2, time_grid=grid,
                                    derivs=[np.zeros((1, 2))] * 2,
                                    area_derivs=[a1[None], a2[None]])
        surf = surface(ens, ("pair", 0, 1), 65)
        alpha = float(np.sum(a1 * a2))
        ref = solve_goursat_scalar((lambda s: alpha, lambda t: 1.0),
                                   surf.s_grid, surf.t_grid)
        assert np.abs(surf.w - ref.w).max() < 1e-12

    def test_random_pair_matches_development(self, rng):
        ens = make_ensemble(rng, 2, 2, [0.0, 0.4, 1.0], scale=0.7)
        surf = surface(ens, ("pair", 0, 1), 257)
        sig0 = develop(characteristic_velocity(ens.path_triplet(0), 2), 0, 1, 12)
        sig1 = develop(characteristic_velocity(ens.path_triplet(1), 2), 0, 1, 12)
        ref = ta.inner_product(sig0, sig1)
        assert abs(surf.value() - ref) / abs(ref) < 1e-3

    def test_transpose_symmetry(self, rng):
        ens = make_ensemble(rng, 2, 2, [0.0, 0.5, 1.0])
        swapped = AugmentedPathEnsemble(ens.dim, ens.time_grid, ens.derivs[::-1],
                                        ens.area_derivs[::-1])
        a = surface(ens, ("pair", 0, 1), 17)
        b = surface(swapped, ("pair", 0, 1), 17)
        assert np.abs(a.w - b.w.T).max() < 1e-12


class TestMMD:
    def test_zero_path_vs_standard_bm(self):
        ens = AugmentedPathEnsemble(dim=1, time_grid=np.array([0.0, 1.0]),
                                    derivs=[np.zeros((1, 1))], area_derivs=[None])
        wn = WienerSpec(1, np.array([0.0, 1.0]), [np.eye(1)])
        mmd, rep = mmd_to_wiener(ens, wn, 257)
        # v_1 = w_11 = 1 since the zero path has unit signature
        assert rep.cross_values[0] == pytest.approx(1.0, abs=1e-12)
        assert rep.pair_values[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert rep.mmd_squared == pytest.approx(I0_1 - 2 + 1, abs=1e-6)

    def test_pure_area_formula(self, rng):
        # mmd^2 = u(T,T) - 2 + mean of pair Goursat values
        grid = [0.0, 1.0]
        ens = make_ensemble(rng, 2, 3, grid, with_area=True)
        for k in range(3):
            ens.derivs[k][:] = 0.0
        wn = WienerSpec(2, np.array(grid), [np.eye(2) * 0.8])
        mmd, rep = mmd_to_wiener(ens, wn, 65)
        assert np.allclose(rep.cross_values, 1.0, atol=1e-10)
        expected = rep.wiener_term - 2.0 + rep.pair_values.mean()
        assert rep.mmd_squared == pytest.approx(expected, abs=1e-12)

    def test_direct_norm_oracle(self, rng):
        ens = make_ensemble(rng, 2, 2, [0.0, 0.5, 1.0], scale=0.7)
        wn = WienerSpec(2, np.array([0.0, 1.0]), [np.eye(2) * 0.5])
        mmd, rep = mmd_to_wiener(ens, wn, 129)
        ref = direct_mmd_squared(ens, wn, 12)
        assert abs(rep.mmd_squared - ref) / max(abs(ref), 1e-12) < 1e-2

    def test_relabeling_invariance(self, rng):
        grid = [0.0, 0.5, 1.0]
        ens = make_ensemble(rng, 2, 3, grid)
        wn = WienerSpec(2, np.array([0.0, 1.0]), [np.eye(2)])
        base, _ = mmd_to_wiener(ens, wn, 33)
        for perm in itertools.permutations(range(3)):
            shuffled = AugmentedPathEnsemble(
                dim=2, time_grid=np.asarray(grid),
                derivs=[ens.derivs[p] for p in perm],
                area_derivs=[ens.area_derivs[p] for p in perm])
            val, _ = mmd_to_wiener(shuffled, wn, 33)
            assert val == pytest.approx(base, abs=1e-13)

    def test_cross_surfaces_satisfy_apriori_bound(self, rng):
        ens = make_ensemble(rng, 2, 2, [0.0, 1.0])
        wn = WienerSpec(2, np.array([0.0, 1.0]), [np.eye(2)])
        _, rep = mmd_to_wiener(ens, wn, 33)
        for key, surf in rep.surfaces.items():
            margin = surf.apriori_margin()
            assert margin is not None and margin <= 1e-12, key

    def test_report_csv(self, rng, tmp_path):
        ens = make_ensemble(rng, 1, 2, [0.0, 1.0], with_area=False)
        wn = WienerSpec(1, np.array([0.0, 1.0]), [np.eye(1)])
        _, rep = mmd_to_wiener(ens, wn, 17)
        out = tmp_path / "mmd.csv"
        rep.to_csv(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "kind,j,k,value"
        assert lines[-1].startswith("mmd,")
        parsed = float(lines[-1].split(",")[-1])
        assert parsed == rep.mmd


class TestRadicandTolerance:
    """A negative squared MMD is clipped or rejected by its size against
    ``|u| + 2/m sum |v| + 1/m^2 sum |w|``, not against a fixed -1e-8."""

    @staticmethod
    def mmd_with_corners(rng, monkeypatch, magnitude, shortfall):
        # m = 2 paths; u, v and w all equal magnitude, so the squared MMD is
        # -shortfall and the terms' magnitude 4 * magnitude
        ens = make_ensemble(rng, 2, 2, [0.0, 1.0])
        wn = WienerSpec(2, np.array([0.0, 1.0]), [np.eye(2)])
        corners = np.array([magnitude - shortfall] + [magnitude] * 5)
        monkeypatch.setattr(mmd_module, "_solve_truncated_batch",
                            lambda pairs, *a, **k: corners[:len(pairs)])
        return mmd_to_wiener(ens, wn, 9)

    @pytest.mark.parametrize("magnitude, shortfall", [(1e6, 1e-7), (1e-6, 1e-20)])
    def test_rounding_level_radicand_is_clipped(self, rng, monkeypatch, magnitude,
                                                shortfall):
        # at 1e6 the fixed threshold rejected a radicand of -1e-7
        mmd, rep = self.mmd_with_corners(rng, monkeypatch, magnitude, shortfall)
        assert rep.radicand < 0.0 and rep.clipped
        assert mmd == rep.mmd_squared == 0.0

    @pytest.mark.parametrize("magnitude, shortfall", [(1e6, 1.0), (1e-6, 1e-9)])
    def test_radicand_beyond_rounding_is_rejected(self, rng, monkeypatch, magnitude,
                                                  shortfall):
        # at 1e-6 the fixed threshold clipped a radicand of -1e-9, 0.1 % of u
        with pytest.raises(NumericalInconsistency, match="magnitude"):
            self.mmd_with_corners(rng, monkeypatch, magnitude, shortfall)

    def test_threshold_scales_with_the_terms(self, rng, monkeypatch):
        # just inside and just outside -1e-8 times the magnitude 4e6
        _, rep = self.mmd_with_corners(rng, monkeypatch, 1e6, 0.039)
        assert rep.clipped
        with pytest.raises(NumericalInconsistency):
            self.mmd_with_corners(rng, monkeypatch, 1e6, 0.041)


def mmd_problem(rng, n_paths):
    ens = make_ensemble(rng, 2, n_paths, [0.0, 0.25, 0.5, 0.75, 1.0])
    covs = [np.eye(2) * 0.5 + np.outer(f, f) for f in rng.uniform(-0.5, 0.5, (2, 2))]
    return ens, WienerSpec(2, np.array([0.0, 0.5, 1.0]), covs)


class TestCornerSweep:
    def test_chunking_changes_no_bit(self, rng, monkeypatch):
        # one group: every chunk is swept in this process
        monkeypatch.setattr(_forks, "cpu_count", lambda: 1)
        ens, wn = mmd_problem(rng, 3)
        sizes = []
        sweep = kernel_solver._sweep
        monkeypatch.setattr(kernel_solver, "_sweep", lambda ds, dt, sidx, *rest:
                            sizes.append(len(sidx)) or sweep(ds, dt, sidx, *rest))
        _, whole = mmd_to_wiener(ens, wn, 33)
        n_surfaces = 1 + 3 + 6
        assert sizes == [n_surfaces]
        sizes.clear()
        monkeypatch.setattr(kernel_solver, "_SWEEP_CHUNK_FLOATS", 1)
        _, chunked = mmd_to_wiener(ens, wn, 33)
        assert sizes == [1] * n_surfaces
        for name in ("mmd", "mmd_squared", "wiener_term", "radicand", "clipped"):
            assert getattr(chunked, name) == getattr(whole, name), name
        assert np.array_equal(chunked.cross_values, whole.cross_values)
        assert np.array_equal(chunked.pair_values, whole.pair_values)

    @pytest.mark.parametrize("cap", [None, 1], ids=["one_chunk", "chunk_per_surface"])
    def test_forked_groups_change_no_bit(self, rng, monkeypatch, forks, cap):
        # two groups: this process sweeps group 0 only, in its own chunks,
        # and a child the rest
        ens, wn = mmd_problem(rng, 3)
        monkeypatch.setattr(_forks, "cpu_count", lambda: 1)
        _, whole = mmd_to_wiener(ens, wn, 33)
        monkeypatch.setattr(_forks, "cpu_count", lambda: 2)
        monkeypatch.setattr(kernel_solver, "_GROUP_COST_FLOATS", 0)
        if cap is not None:
            monkeypatch.setattr(kernel_solver, "_SWEEP_CHUNK_FLOATS", cap)
        parent, sizes = os.getpid(), []
        sweep = kernel_solver._sweep
        monkeypatch.setattr(kernel_solver, "_sweep", lambda ds, dt, sidx, *rest:
                            (sizes.append(len(sidx)) if os.getpid() == parent else None)
                            or sweep(ds, dt, sidx, *rest))
        _, forked = mmd_to_wiener(ens, wn, 33)
        assert len(forks) == 1
        group = sum(sizes)
        assert 0 < group < 1 + 3 + 6
        assert sizes == ([group] if cap is None else [1] * group)
        assert report_bits(forked) == report_bits(whole)

    def test_surfaces_are_the_batched_full_surfaces(self, rng):
        ens, wn = mmd_problem(rng, 3)
        _, rep = mmd_to_wiener(ens, wn, 33)
        keys = (["wiener"] + [("cross", k) for k in range(3)]
                + [("pair", j, k) for j in range(3) for k in range(j, 3)])
        assert list(rep.surfaces) == keys and len(rep.surfaces) == len(keys)
        # the same velocity objects as mmd_to_wiener's: a pair (v, v) rounds
        # A = X X^T as one product with itself
        paths = [characteristic_velocity(ens.path_triplet(k), 2) for k in range(3)]
        right = characteristic_velocity(wn.as_triplet(), 2)
        pairs = ([(right, right)] + [(p, right) for p in paths]
                 + [(paths[j], paths[k]) for j in range(3) for k in range(j, 3)])
        grid = make_grid(1.0, 33, np.concatenate([ens.time_grid, wn.time_grid]))
        batch = _solve_truncated_batch(pairs, 2, 2, grid, grid)
        corners = [rep.wiener_term, *rep.cross_values,
                   *(rep.pair_values[j, k] for j in range(3) for k in range(j, 3))]
        for key, ref, corner in zip(keys, batch, corners):
            surf = rep.surfaces[key]
            for name in ("s_grid", "t_grid", "w", "f", "ftilde", "s_mass", "t_mass"):
                assert np.array_equal(getattr(surf, name), getattr(ref, name)), (key, name)
            assert surf.meta == ref.meta
            assert surf.value() == corner
        with pytest.raises(TypeError):
            rep.surfaces["wiener"] = batch[0]

    def test_peak_memory_is_bounded_by_the_chunk_cap(self, rng, monkeypatch):
        # 16 paths: 1 + 16 + 136 = 153 surfaces of state width D = 5 on 33^2
        # nodes.  Holding every node, as a full sweep does, takes
        # 153 * 33^2 * 5 floats = 6.7 MB.  A corner-only chunk holds at most
        # the cap's floats as _corner_floats counts them; doubling it covers
        # what that count leaves out (the map-building blocks, each
        # contraction's products).  Outside the chunks the batch keeps per
        # surface its pair, key and corner, and per velocity its tables: two
        # floats per node of one diagonal per surface bound them
        # one group: tracemalloc sees this process only
        monkeypatch.setattr(_forks, "cpu_count", lambda: 1)
        cap = 1 << 15
        monkeypatch.setattr(kernel_solver, "_SWEEP_CHUNK_FLOATS", cap)
        ens, wn = mmd_problem(rng, 16)
        surfaces, nodes, D = 153, 33, 5
        tracemalloc.start()
        try:
            _, rep = mmd_to_wiener(ens, wn, nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rep.surfaces) == surfaces
        bound = 8 * (2 * cap + 2 * surfaces * nodes * D)
        full_state = 8 * surfaces * nodes**2 * D
        assert bound < full_state / 5
        assert peak < bound

    def test_forked_parent_peak_is_bounded_by_the_chunk_cap(self, rng, monkeypatch, forks):
        # the bound of the test above holds for this process, which sweeps
        # one of two groups (at the fitted group cost: 153 surfaces hold
        # far more floats than two groups need)
        monkeypatch.setattr(_forks, "cpu_count", lambda: 2)
        cap = 1 << 15
        monkeypatch.setattr(kernel_solver, "_SWEEP_CHUNK_FLOATS", cap)
        ens, wn = mmd_problem(rng, 16)
        surfaces, nodes, D = 153, 33, 5
        tracemalloc.start()
        try:
            _, rep = mmd_to_wiener(ens, wn, nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(forks) == 1 and len(rep.surfaces) == surfaces
        assert peak < 8 * (2 * cap + 2 * surfaces * nodes * D)


def report_bits(rep):
    """Every number of an ``MMDReport`` but its surfaces, as exact bits."""
    return ([float(getattr(rep, name)).hex() for name in
             ("mmd", "mmd_squared", "wiener_term", "radicand")]
            + [rep.clipped, rep.cross_values.tobytes(), rep.pair_values.tobytes()])


class TestForkedCornerGroups:
    """A corner-only batch split into surface groups, every group past the
    first swept by a forked child, gives the bits, errors and warnings of
    one group swept in this process, by every fallback, and leaves no
    child process and no open file descriptor behind."""

    FITTED = kernel_solver._GROUP_COST_FLOATS

    @pytest.fixture(autouse=True)
    def groups(self, monkeypatch):
        # two groups, whatever the batch's size
        monkeypatch.setattr(_forks, "cpu_count", lambda: 2)
        monkeypatch.setattr(kernel_solver, "_GROUP_COST_FLOATS", 0)

    @staticmethod
    def problem(rng, which):
        """A zero-argument solve returning its result's exact bits."""
        if which == "mmd":
            ens, wn = mmd_problem(rng, 3)
            return lambda: report_bits(mmd_to_wiener(ens, wn, 33)[1])
        pairs, g = mixed_corner_batch(rng)
        return lambda: _solve_truncated_batch(pairs, 3, 3, g, g, corners=True).tobytes()

    def check(self, monkeypatch, solve):
        """``solve()`` in the current setup gives the bits of one group, and
        leaves no child and no descriptor."""
        fds = open_fds()
        got = solve()
        assert open_fds() == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        with monkeypatch.context() as m:
            m.setattr(_forks, "cpu_count", lambda: 1)
            assert got == solve()

    @pytest.mark.parametrize("which", ["mmd", "mixed"])
    @pytest.mark.parametrize("cap", [None, 1], ids=["one_chunk", "chunk_per_surface"])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_bitwise_equal_to_one_group(self, rng, monkeypatch, forks, which, cap, cpus):
        monkeypatch.setattr(_forks, "cpu_count", lambda: cpus)
        if cap is not None:
            monkeypatch.setattr(kernel_solver, "_SWEEP_CHUNK_FLOATS", cap)
        self.check(monkeypatch, self.problem(rng, which))
        assert len(forks) == cpus - 1

    @pytest.mark.parametrize("how", ["no_fork", "fork_raising", "pipe_raising"])
    def test_no_child(self, rng, monkeypatch, how):
        def fail(*args):
            raise OSError(24, "Too many open files")
        if how == "no_fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork" if how == "fork_raising" else "pipe", fail)
        self.check(monkeypatch, self.problem(rng, "mmd"))

    @pytest.mark.parametrize("how", ["exit_1", "killed"])
    def test_child_failing_at_once(self, rng, monkeypatch, how):
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid == 0:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(1)
            return pid
        monkeypatch.setattr(os, "fork", fork)
        self.check(monkeypatch, self.problem(rng, "mmd"))

    @pytest.mark.parametrize("how", ["short", "wrong_then_exit_1"])
    def test_child_sending_what_is_not_used(self, rng, monkeypatch, forks, how):
        # a child that exits 0 after sending one value too few, or sends
        # zeros of the right length and then fails: the parent sweeps the
        # group itself
        parent, real = os.getpid(), _forks.send

        def send(writer, levels):
            if os.getpid() == parent:
                return real(writer, levels)
            if how == "short":
                return real(writer, [levels[0][:-1]])
            real(writer, [np.zeros_like(levels[0])])
            raise RuntimeError("child fails after its values")
        monkeypatch.setattr(_forks, "send", send)
        self.check(monkeypatch, self.problem(rng, "mixed"))
        assert len(forks) == 1

    def test_child_reaped_by_sigchld_ignore(self, rng, monkeypatch, forks):
        old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            self.check(monkeypatch, self.problem(rng, "mmd"))
        finally:
            signal.signal(signal.SIGCHLD, old)
        assert len(forks) == 1

    def test_no_fork_beside_another_python_thread(self, rng, monkeypatch, forks):
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            self.check(monkeypatch, self.problem(rng, "mmd"))
        finally:
            stop.set()
            other.join()
        assert forks == []

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_nan_surface(self, rng, monkeypatch, forks, where):
        # an overflowing path's surfaces end in the last group (a child's)
        # or in the first (this process's): the error of one group, and the
        # child is reaped or killed
        ens, wn = mmd_problem(rng, 3)
        ens.derivs[0][0, 0] = 1e300
        paths = [characteristic_velocity(ens.path_triplet(k), 2) for k in range(3)]
        right = characteristic_velocity(wn.as_triplet(), 2)
        pairs = [(right, right)] + [(p, right) for p in paths[1:]]
        nan_pair = [(paths[0], paths[0])]
        pairs = pairs + nan_pair if where == "child" else nan_pair + pairs
        grid = make_grid(1.0, 33, np.concatenate([ens.time_grid, wn.time_grid]))
        errors = []
        for cpus in (2, 1):
            monkeypatch.setattr(_forks, "cpu_count", lambda: cpus)
            fds = open_fds()
            with pytest.raises(NumericalInconsistency) as err:
                _solve_truncated_batch(pairs, 2, 2, grid, grid, corners=True)
            errors.append(str(err.value))
            assert open_fds() == fds
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert len(forks) == 1 and errors[0] == errors[1]

    @pytest.mark.parametrize("where", ["group", "receive"])
    def test_parent_interrupt_kills_and_reaps(self, rng, monkeypatch, forks, where):
        # three groups: this process raises in its own group, or while it
        # reads the first child's values; both children are killed and
        # reaped, and every pipe closed
        monkeypatch.setattr(_forks, "cpu_count", lambda: 3)
        parent = os.getpid()
        if where == "group":
            real = kernel_solver._sweep_corners

            def interrupt(*args):
                if os.getpid() == parent:
                    raise KeyboardInterrupt
                return real(*args)
            monkeypatch.setattr(kernel_solver, "_sweep_corners", interrupt)
        else:
            def interrupt(reader, sizes):
                raise KeyboardInterrupt
            monkeypatch.setattr(_forks, "receive", interrupt)
        solve = self.problem(rng, "mixed")
        fds = open_fds()
        with pytest.raises(KeyboardInterrupt):
            solve()
        assert len(forks) == 2 and open_fds() == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_warning_is_shown_by_the_parent(self, rng, monkeypatch, forks):
        # each group warns once: the child stops at its warning, and this
        # process sweeps that group again and shows it, as with no fork
        real = kernel_solver._sweep_corners

        def warn(*args):
            warnings.warn(f"group {args[-2]}:{args[-1]}", UserWarning)
            return real(*args)
        monkeypatch.setattr(kernel_solver, "_sweep_corners", warn)
        solve = self.problem(rng, "mixed")
        runs = []
        for fork in (True, False):
            with monkeypatch.context() as m, warnings.catch_warnings(record=True) as shown:
                warnings.simplefilter("always")
                if not fork:
                    m.delattr(os, "fork")
                got = solve()
            runs.append((got, [str(w.message) for w in shown]))
        assert len(forks) == 1 and runs[0] == runs[1] and len(runs[0][1]) == 2

    def test_one_surface_forks_nothing(self, rng, forks):
        pairs, g = mixed_corner_batch(rng)
        _solve_truncated_batch(pairs[:1], 3, 3, g, g, corners=True)
        assert forks == []

    @pytest.mark.parametrize("paths, points, forked", [(1, 17, False), (1, 65, False),
                                                       (8, 65, True)])
    def test_groups_follow_the_fitted_cost(self, rng, monkeypatch, forks, paths, points,
                                           forked):
        # 3 surfaces lose to the fork on 17^2 and 65^2; the 45 of 8 paths
        # on 65^2 win
        monkeypatch.setattr(kernel_solver, "_GROUP_COST_FLOATS", self.FITTED)
        ens, wn = mmd_problem(rng, paths)
        mmd_to_wiener(ens, wn, points)
        assert len(forks) == forked
