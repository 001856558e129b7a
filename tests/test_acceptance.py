"""Acceptance suite: one test per criterion, in order, each printing a
PASS line with the measured quantities (run with -s to stream them).

Criteria 1-4 and 7 register every kernel surface they produce so that
criterion 10 can check the a priori bound on all of them.
"""

import math
import time

import numpy as np
import pytest

from levy_sigkernel import tensor_algebra as ta
from levy_sigkernel.characteristics import (GaussianJumps, LevyTriplet,
                                            PiecewiseVelocity,
                                            characteristic_velocity)
from levy_sigkernel.development import (bound_gronwall,
                                        bound_inner_truncation, bound_level,
                                        bound_lipschitz,
                                        bound_outer_truncation, develop,
                                        gaussian_mgf_moment)
from levy_sigkernel.kernel_solver import (KernelSurface, _refine, bessel_i0,
                                          make_grid, solve_goursat_scalar,
                                          solve_truncated_system,
                                          truncation_certificate)
from levy_sigkernel.mc_oracle import estimate_expected_signature, estimate_kernel
from levy_sigkernel.mmd import AugmentedPathEnsemble, WienerSpec, mmd_to_wiener
from levy_sigkernel.tensor_algebra import TruncatedTensor as TT

_REGISTRY: list[dict] = []


def register_surface(label, surf):
    assert surf.s_mass is not None and surf.t_mass is not None, label
    # the nodes and masses alone: the fields are not kept alive
    _REGISTRY.append({"label": label, "surface": KernelSurface(
        surf.s_grid, surf.t_grid, surf.w, s_mass=surf.s_mass, t_mass=surf.t_mass)})


def random_velocity_tensor(rng, dim, depth, scale):
    levels = [np.zeros(1)]
    for n in range(1, depth + 1):
        arr = rng.uniform(-1.0, 1.0, size=dim**n)
        arr *= scale / (np.linalg.norm(arr) * 2**n)
        levels.append(arr)
    return TT(dim, levels)


def random_velocity(rng, dim, depth, grid, scale):
    return PiecewiseVelocity(
        dim, grid,
        [random_velocity_tensor(rng, dim, depth, scale)
         for _ in range(len(grid) - 1)])


# ---------------------------------------------------------------- 1


@pytest.fixture(scope="module")
def crit1_data():
    grid = np.linspace(0.0, 1.0, 513)
    t0 = time.perf_counter()
    const = solve_goursat_scalar((lambda s: 1.0, lambda t: 1.0), grid, grid)
    separable = solve_goursat_scalar((lambda s: 2.0 * s, lambda t: 1.0),
                                     grid, grid)
    elapsed = time.perf_counter() - t0
    register_surface("crit1-const", const)
    register_surface("crit1-separable", separable)
    return {"grid": grid, "const": const, "separable": separable,
            "elapsed": elapsed}


def test_criterion_1_bessel_closed_form(crit1_data):
    i0_2 = bessel_i0(2.0)
    rel_const = abs(crit1_data["const"].value() - i0_2) / i0_2
    assert rel_const <= 1e-4
    # separable case F = s^2, G = t against I0(2 s sqrt(t)) at sampled nodes
    grid = crit1_data["grid"]
    w = crit1_data["separable"].w
    worst = 0.0
    for i in (128, 256, 384, 512):
        for j in (128, 256, 384, 512):
            ref = bessel_i0(2.0 * grid[i] * math.sqrt(grid[j]))
            worst = max(worst, abs(w[i, j] - ref) / ref)
    assert worst <= 1e-4
    assert crit1_data["elapsed"] < 5.0
    print(f"\nACCEPTANCE 1 PASS: scalar Goursat vs Bessel, rel errs "
          f"{rel_const:.2e} (alpha=1) / {worst:.2e} (separable), "
          f"runtime {crit1_data['elapsed']:.2f}s < 5s")


# ---------------------------------------------------------------- 2


@pytest.fixture(scope="module")
def crit2_data():
    bm = LevyTriplet.brownian(1, 1.0)
    grid = np.linspace(0.0, 1.0, 513)
    vel = characteristic_velocity(bm, 2)
    surf = solve_truncated_system(vel, vel, 2, 2, grid, grid)
    register_surface("crit2-bm", surf)
    return {"surface": surf}


def test_criterion_2_bm_kernel(crit2_data):
    err = abs(crit2_data["surface"].value() - bessel_i0(1.0))
    assert err <= 1e-4
    print(f"\nACCEPTANCE 2 PASS: BM expected-signature kernel vs I0(1), "
          f"|err| = {err:.2e} <= 1e-4 at 512^2")


# ---------------------------------------------------------------- 3

# per-(dim, level) velocity scale: large enough that grid errors sit well
# above roundoff (clean convergence order), small enough that the
# development oracle depth demanded by the 1e-8 bound stays tractable in
# the dense representation.  The (3, 3) combination is excluded: any mass
# giving measurable grid error needs oracle depths whose dense d=3 tensors
# exceed memory (see decisions ledger).
_SCALES = {(1, 1): 0.5, (1, 2): 0.5, (1, 3): 0.5,
           (2, 1): 0.8, (2, 2): 0.6, (2, 3): 0.25,
           (3, 1): 0.8, (3, 2): 0.3}
_COMBOS = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]


@pytest.fixture(scope="module")
def crit3_data():
    rng = np.random.default_rng(424242)
    cases = []
    for case in range(20):
        d, m = _COMBOS[case % len(_COMBOS)]
        n_int = 1 + case % 4
        cuts = np.sort(rng.uniform(0.15, 0.85, size=n_int - 1))
        grid = np.concatenate([[0.0], cuts, [1.0]])
        scale = _SCALES[(d, m)]
        v = random_velocity(rng, d, 3, grid, scale)
        vt = random_velocity(rng, d, 3, grid, scale)
        depth = next(dd for dd in range(max(2 * m, 4), 40)
                     if bound_outer_truncation(v, 0, 1, m, dd + 1) < 1e-8)
        oracle = ta.inner_product(develop(v.truncated(m), 0, 1, depth),
                                  develop(vt.truncated(m), 0, 1, depth))
        # nested halvings: midpoint-refine one base grid so every cell
        # scales exactly by 1/2 between levels
        g = make_grid(1.0, 65, grid)
        errs = []
        for level in range(3):
            surf = solve_truncated_system(v, vt, m, m, g, g)
            register_surface(f"crit3-{case}-L{level}", surf)
            errs.append(abs(surf.value() - oracle))
            g = _refine(g)
        cases.append({"d": d, "m": m, "oracle": oracle, "errs": errs})
    return cases


def test_criterion_3_oracle_equivalence(crit3_data):
    measurable = 0
    orders = []
    for case in crit3_data:
        rel = case["errs"][-1] / abs(case["oracle"])
        assert rel <= 1e-3, case
        if case["errs"][0] >= 1e-12:
            measurable += 1
            order = math.log2(case["errs"][0] / case["errs"][2]) / 2
            orders.append(order)
            assert order >= 1.9, case
    assert measurable >= 15
    print(f"\nACCEPTANCE 3 PASS: 20 random velocity pairs match the "
          f"development oracle (worst rel err "
          f"{max(c['errs'][-1] / abs(c['oracle']) for c in crit3_data):.2e} "
          f"<= 1e-3); grid order in [{min(orders):.2f}, {max(orders):.2f}] "
          f">= 1.9 on {measurable}/20 measurable cases")


# ---------------------------------------------------------------- 4


@pytest.fixture(scope="module")
def crit4_data():
    trip = LevyTriplet.homogeneous(
        1, 1.0, jumps=GaussianJumps(1.0, np.array([[1.0]])))
    v_full = characteristic_velocity(trip, 30)
    dev_full = develop(v_full, 0.0, 1.0, 40)
    u_ref = ta.inner_product(dev_full, dev_full)
    grid = np.linspace(0.0, 1.0, 257)
    rows = []
    for m in (2, 4, 6):
        surf = solve_truncated_system(v_full.truncated(m), v_full.truncated(m),
                                      m, m, grid, grid)
        register_surface(f"crit4-M{m}", surf)
        cert = truncation_certificate(v_full, v_full, m, m, 1.0, 1.0)
        rows.append({"m": m, "w": surf.value(), "cert": cert,
                     "gap": abs(u_ref - surf.value())})
    return {"u_ref": u_ref, "rows": rows}


def test_criterion_4_truncation_certificate(crit4_data):
    for row in crit4_data["rows"]:
        assert row["gap"] <= row["cert"], row
    certs = [row["cert"] for row in crit4_data["rows"]]
    gaps = [row["gap"] for row in crit4_data["rows"]]
    ratios = [certs[1] / certs[0], certs[2] / certs[1]]
    assert ratios[1] < ratios[0] < 1.0
    gap_str = ", ".join(f"{g:.1e}" for g in gaps)
    cert_str = ", ".join(f"{c:.1e}" for c in certs)
    print(f"\nACCEPTANCE 4 PASS: Gaussian-jump truncation certificate "
          f"dominates the true gap at M=2,4,6 (gaps [{gap_str}] <= certs "
          f"[{cert_str}]); factorial ratio decrease "
          f"{ratios[0]:.3f} -> {ratios[1]:.3f}")


# ---------------------------------------------------------------- 5


def test_criterion_5_bound_suite():
    rng = np.random.default_rng(5150)
    velocities = []
    for k in range(50):
        d = 1 + k % 3
        n_int = 1 + k % 3
        cuts = np.sort(rng.uniform(0.2, 0.8, size=n_int - 1))
        grid = np.concatenate([[0.0], cuts, [1.0]])
        velocities.append(random_velocity(rng, d, 3, grid, scale=0.6))
    margins = []
    for i, v in enumerate(velocities):
        dev = develop(v, 0.0, 1.0, 8)
        for n in range(1, 7):
            exact = float(np.linalg.norm(dev.levels[n]))
            assert exact <= bound_level(v, 0, 1, n) * (1 + 1e-12)
        assert ta.norm_p(dev, 1) <= bound_gronwall(v, 0, 1) * (1 + 1e-12)
        w = velocities[(i + 1) % len(velocities)]
        if w.dim == v.dim:
            gap = ta.norm_p(develop(v, 0, 1, 8) - develop(w, 0, 1, 8), 1)
            assert gap <= bound_lipschitz(v, w, 0, 1) * (1 + 1e-12)
        inner = ta.norm_p(dev - develop(v.truncated(1), 0, 1, 8), 1)
        assert inner <= bound_inner_truncation(v, 0, 1, 1) * (1 + 1e-12)
        dev2 = develop(v.truncated(2), 0.0, 1.0, 8)
        tail = sum(float(np.linalg.norm(dev2.levels[n])) for n in range(4, 9))
        assert tail <= bound_outer_truncation(v, 0, 1, 2, 4) * (1 + 1e-12)
    # equality in the one-dimensional non-negative constant case
    worst_eq = 0.0
    for _ in range(10):
        levels = [np.zeros(1)] + [rng.uniform(0.0, 0.7, size=1) / 2**n
                                  for n in range(1, 4)]
        v = PiecewiseVelocity(1, [0.0, 1.0], [TT(1, levels)])
        dev = develop(v, 0.0, 1.0, 6)
        for n in range(1, 7):
            exact = float(np.linalg.norm(dev.levels[n]))
            worst_eq = max(worst_eq, abs(exact - bound_level(v, 0, 1, n)))
    assert worst_eq <= 1e-12
    print(f"\nACCEPTANCE 5 PASS: all five development bounds dominate exact "
          f"values on 50 random velocities; 1-d non-negative equality within "
          f"{worst_eq:.1e} <= 1e-12")


# ---------------------------------------------------------------- 6


def test_criterion_6_fawcett_monte_carlo():
    t0 = time.perf_counter()
    bm = LevyTriplet.brownian(1, 1.0)
    est = estimate_expected_signature(bm, 1.0, 4, 100_000, 32, seed=7)
    target = [1.0, 0.0, 0.5, 0.0, 0.125]
    worst_z = 0.0
    for n in range(5):
        se = est.se.levels[n][0]
        gap = abs(est.mean.levels[n][0] - target[n])
        if se == 0.0:
            assert gap == 0.0
        else:
            worst_z = max(worst_z, gap / se)
    assert worst_z <= 3.0
    kern, kern_se = estimate_kernel(bm, bm, 1.0, 4, 100_000, 16, seed=11)
    z_kernel = abs(kern - bessel_i0(1.0)) / kern_se
    assert z_kernel <= 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6 PASS: 1e5-path Fawcett check (worst z = "
          f"{worst_z:.2f} <= 3) and kernel vs I0(1) (z = {z_kernel:.2f} <= 3) "
          f"in {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------- 7


def _antisym(m):
    m = np.asarray(m, dtype=float)
    return m - m.T


@pytest.fixture(scope="module")
def crit7_data():
    rng = np.random.default_rng(777)
    grid = np.array([0.0, 0.5, 1.0])
    derivs = [rng.uniform(-1, 1, size=(2, 2)) * 0.8 for _ in range(2)]
    areas = [np.stack([_antisym(rng.uniform(-1, 1, size=(2, 2))) * 0.3
                       for _ in range(2)]) for _ in range(2)]
    ens = AugmentedPathEnsemble(dim=2, time_grid=grid, derivs=derivs,
                                area_derivs=areas)
    wiener = WienerSpec(2, np.array([0.0, 1.0]), [0.5 * np.eye(2)])
    mmd, report = mmd_to_wiener(ens, wiener, 257)
    for key, surf in report.surfaces.items():
        register_surface(f"crit7-{key}", surf)

    # independent oracle: Hilbert-norm of the embedding difference
    sigs = [develop(characteristic_velocity(ens.path_triplet(k), 2), 0, 1, 12)
            for k in range(2)]
    mean = (sigs[0] + sigs[1]) * 0.5
    wiener_sig = develop(characteristic_velocity(wiener.as_triplet(), 2),
                         0, 1, 12)
    diff = mean - wiener_sig
    direct = ta.inner_product(diff, diff)

    # pure-area ensemble: cross kernels must trivialize
    pure = AugmentedPathEnsemble(dim=2, time_grid=grid,
                                 derivs=[np.zeros((2, 2))] * 2,
                                 area_derivs=areas)
    _, pure_report = mmd_to_wiener(pure, wiener, 129)
    for key, surf in pure_report.surfaces.items():
        register_surface(f"crit7-pure-{key}", surf)
    return {"report": report, "direct": direct, "pure_report": pure_report}


def test_criterion_7_mmd_assembly(crit7_data):
    got = crit7_data["report"].mmd_squared
    direct = crit7_data["direct"]
    rel = abs(got - direct) / abs(direct)
    assert rel <= 1e-2
    pure = crit7_data["pure_report"]
    dev_from_one = max(abs(v - 1.0) for v in pure.cross_values)
    assert dev_from_one <= 1e-10
    print(f"\nACCEPTANCE 7 PASS: MMD^2 from surfaces = {got:.6f} vs direct "
          f"depth-12 norm {direct:.6f} (rel err {rel:.2e} <= 1e-2); "
          f"pure-area cross kernels within {dev_from_one:.1e} of 1")


# ---------------------------------------------------------------- 8


def test_criterion_8_algebra_property_suite():
    rng = np.random.default_rng(8888)

    def rand(dim, depth, scale=0.8):
        return TT(dim, [rng.normal(size=dim**n) * scale / (n + 1)
                        for n in range(depth + 1)])

    worst = {"duality": 0.0, "homogeneous": 0.0, "young": 0.0,
             "explog": 0.0, "dilation": 0.0}
    for _ in range(1000):
        x, y, z = rand(2, 2), rand(2, 2), rand(2, 4)
        lhs = ta.inner_product(z, ta.tensor_mul(x, y, 4))
        worst["duality"] = max(
            worst["duality"],
            abs(lhs - ta.inner_product(ta.adjoint_left(x, z), y)),
            abs(lhs - ta.inner_product(ta.adjoint_right(y, z), x)))
    pairs = [(1, 1), (2, 1), (2, 2), (3, 2)]
    for i in range(1000):
        n, k = pairs[i % 4]
        x, y = rand(2, 2), rand(2, 2)
        a = TT(2, [np.zeros(2**m) if m != n else rng.normal(size=2**n)
                   for m in range(n + 1)])
        b = TT(2, [np.zeros(2**m) if m != k else rng.normal(size=2**k)
                   for m in range(k + 1)])
        lhs = ta.inner_product(ta.tensor_mul(x, a, 2 + n),
                               ta.tensor_mul(y, b, 2 + k))
        rhs = ta.inner_product(ta.adjoint_left(x, y), ta.adjoint_right(b, a))
        worst["homogeneous"] = max(worst["homogeneous"], abs(lhs - rhs))
    for _ in range(1000):
        x, y = rand(2, 3), rand(2, 3)
        worst["young"] = max(
            worst["young"],
            ta.norm_p(ta.tensor_mul(x, y, 6), 1) - ta.norm_p(x, 1) * ta.norm_p(y, 1))
    shapes = [(1, 8), (2, 5), (3, 4), (4, 3)]
    for i in range(1000):
        d, depth = shapes[i % 4]
        x = rand(d, depth, scale=0.5)
        x.levels[0][:] = 0.0
        back = ta.log_tensor(ta.exp_tensor(x))
        worst["explog"] = max(worst["explog"], ta.norm_p(back - x, "max"))
    for _ in range(1000):
        x, y = rand(2, 3), rand(2, 3)
        lam = float(rng.uniform(0.3, 1.7))
        diff = ta.dilate(ta.tensor_mul(x, y, 3), lam) \
            - ta.tensor_mul(ta.dilate(x, lam), ta.dilate(y, lam), 3)
        worst["dilation"] = max(worst["dilation"], ta.norm_p(diff, "max"))
    for name, value in worst.items():
        assert value <= 1e-12, (name, value)
    print(f"\nACCEPTANCE 8 PASS: 1000-case algebra suite, worst residuals "
          + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()) + " <= 1e-12")


# ---------------------------------------------------------------- 9


def test_criterion_9_gaussian_mgf():
    assert abs(gaussian_mgf_moment(1, 0) - math.sqrt(2.0)) <= 1e-12
    rng = np.random.default_rng(2026)
    worst_z = 0.0
    for d in (1, 2, 3):
        draws = rng.standard_normal((1_000_000, d))
        sq = np.sum(draws * draws, axis=1)
        base = np.exp(sq / 4)
        for m in (0, 1, 2):
            samples = base * sq**m
            se = samples.std(ddof=1) / 1000.0
            z = abs(samples.mean() - gaussian_mgf_moment(d, m)) / se
            worst_z = max(worst_z, z)
    assert worst_z <= 3.0
    print(f"\nACCEPTANCE 9 PASS: Gaussian MGF closed form vs 1e6-sample "
          f"Monte Carlo at d in 1..3, m in 0..2 (worst z = {worst_z:.2f} "
          f"<= 3); d=1 m=0 equals sqrt(2) to 1e-12")


# ---------------------------------------------------------------- 10


def test_criterion_10_apriori_bound(crit1_data, crit2_data, crit3_data,
                                    crit4_data, crit7_data):
    assert len(_REGISTRY) >= 70
    worst = -math.inf
    for entry in _REGISTRY:
        # psi(x, y) = e^{x+y} I0(2 sqrt(xy)), evaluated on the node grid
        margin = entry["surface"].apriori_margin()
        assert margin <= 1e-10, entry["label"]
        worst = max(worst, margin)
    print(f"\nACCEPTANCE 10 PASS: |w| <= psi(C_s, C_t) at every node of all "
          f"{len(_REGISTRY)} registered surfaces (worst margin {worst:.1e})")
