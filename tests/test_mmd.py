import itertools
import math

import numpy as np
import pytest

from levy_sigkernel import tensor_algebra as ta
from levy_sigkernel.characteristics import characteristic_velocity
from levy_sigkernel.development import develop
from levy_sigkernel.errors import InvalidParameter, InvalidTriplet
from levy_sigkernel.kernel_solver import bessel_i0, solve_goursat_scalar
from levy_sigkernel.mmd import (AugmentedPathEnsemble, WienerSpec,
                                cross_kernel, mmd_to_wiener, pair_kernel)

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

    def test_factor_construction(self):
        wn = WienerSpec.from_factors(2, [0.0, 1.0], [[[1.0, 0.0], [0.0, 2.0]]])
        assert np.allclose(wn.covs[0], np.diag([1.0, 4.0]))


class TestCrossKernel:
    def test_pure_area_path_gives_one(self, rng):
        grid = [0.0, 0.5, 1.0]
        ens = make_ensemble(rng, 2, 1, grid, with_area=True)
        ens.derivs[0][:] = 0.0
        wn = WienerSpec(2, np.array([0.0, 1.0]), [np.eye(2)])
        surf = cross_kernel(ens, 0, wn, 33)
        assert np.abs(surf.w - 1.0).max() < 1e-10

    def test_degenerate_wiener_gives_one(self, rng):
        ens = make_ensemble(rng, 2, 1, [0.0, 1.0])
        wn = WienerSpec(2, np.array([0.0, 1.0]), [np.zeros((2, 2))])
        surf = cross_kernel(ens, 0, wn, 17)
        assert np.abs(surf.w - 1.0).max() < 1e-12

    def test_boundary_field_is_path_integral(self, rng):
        ens = make_ensemble(rng, 2, 1, [0.0, 0.5, 1.0], with_area=True)
        wn = WienerSpec(2, np.array([0.0, 1.0]), [np.eye(2)])
        surf = cross_kernel(ens, 0, wn, 33)
        # f(s, 0) = int_0^s b_k; check at the far corner of the t=0 row
        expected = 0.5 * ens.derivs[0][0] + 0.5 * ens.derivs[0][1]
        assert np.allclose(surf.f[-1, 0, 1:], expected, atol=1e-12)
        assert np.abs(surf.f[0]).max() == 0.0   # f(0, t) = 0

    def test_matches_development_inner_product(self, rng):
        # d = 1 drifting path against a standard BM, Dyson-type low order
        grid = np.array([0.0, 1.0])
        ens = AugmentedPathEnsemble(dim=1, time_grid=grid,
                                    derivs=[np.array([[1.0]])], area_derivs=[None])
        wn = WienerSpec(1, grid, [np.eye(1)])
        surf = cross_kernel(ens, 0, wn, 257)
        sig = develop(characteristic_velocity(ens.path_triplet(0), 2), 0, 1, 12)
        esig = wiener_expected_signature(wn, 1.0, 12)
        ref = ta.inner_product(sig, esig)
        assert abs(surf.value() - ref) / abs(ref) < 1e-3


class TestPairKernel:
    def test_zero_paths(self, rng):
        ens = AugmentedPathEnsemble(dim=2, time_grid=np.array([0.0, 1.0]),
                                    derivs=[np.zeros((1, 2))] * 2,
                                    area_derivs=[None, None])
        surf = pair_kernel(ens, 0, 1, 9)
        assert np.all(surf.w == 1.0)

    def test_area_free_reduces_to_classical_goursat(self, rng):
        grid = np.array([0.0, 1.0])
        b0, b1 = np.array([[0.8, -0.3]]), np.array([[0.2, 0.9]])
        ens = AugmentedPathEnsemble(dim=2, time_grid=grid, derivs=[b0, b1],
                                    area_derivs=[None, None])
        surf = pair_kernel(ens, 0, 1, 65)
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
        surf = pair_kernel(ens, 0, 1, 65)
        alpha = float(np.sum(a1 * a2))
        ref = solve_goursat_scalar((lambda s: alpha, lambda t: 1.0),
                                   surf.s_grid, surf.t_grid)
        assert np.abs(surf.w - ref.w).max() < 1e-12

    def test_random_pair_matches_development(self, rng):
        ens = make_ensemble(rng, 2, 2, [0.0, 0.4, 1.0], scale=0.7)
        surf = pair_kernel(ens, 0, 1, 257)
        sig0 = develop(characteristic_velocity(ens.path_triplet(0), 2), 0, 1, 12)
        sig1 = develop(characteristic_velocity(ens.path_triplet(1), 2), 0, 1, 12)
        ref = ta.inner_product(sig0, sig1)
        assert abs(surf.value() - ref) / abs(ref) < 1e-3

    def test_transpose_symmetry(self, rng):
        ens = make_ensemble(rng, 2, 2, [0.0, 0.5, 1.0])
        a = pair_kernel(ens, 0, 1, 17)
        b = pair_kernel(ens, 1, 0, 17)
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
