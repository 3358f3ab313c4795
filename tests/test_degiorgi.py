"""Weighted measures, the isoperimetric bound, the local energy bound."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from scipy.fft import rfft2

from sqgdiag.degiorgi import (
    ISOPERIMETRIC_CONSTANT,
    LOCAL_ENERGY_CONSTANT,
    MC_CHUNK,
    PREDICATES,
    WeightedRegion,
    _gradient_squared,
    _sample_plan,
    _trilinear,
    _trilinear_plan,
    extension_cutoff,
    isoperimetric_check,
    isoperimetric_family,
    linear_reference_profile,
    local_energy_check,
    weighted_measure,
)
from sqgdiag.extension import (
    ExtensionField,
    _z_derivative,
    cutoff_box,
    extend,
    trace_ladder,
    weighted_z_integral,
)
from sqgdiag.solver import SolverConfig, run
from sqgdiag.spectral import Grid, ScalarField, half_spectrum, random_band_limited, riesz_velocity

SEGMENT_AREA = np.pi / 3 - np.sqrt(3) / 4  # unit-disk area beyond x = 1/2


def constant_half_field(n_z=9):
    g = Grid(64, 4.0)
    z = np.linspace(0, 1, n_z)
    return ExtensionField(g, z, np.full((n_z, g.n, g.n), 0.5), 0.0)


class TestWeightedMeasure:
    def test_empty_set(self):
        ext = constant_half_field()
        mc = WeightedRegion(sample_count=50_000, seed=3)
        est, se = weighted_measure(ext, "le_zero", 0.0, mc)
        assert est == 0.0

    def test_full_cylinder_volume(self):
        ext = constant_half_field()
        mc = WeightedRegion(sample_count=200_000, seed=3)
        est, se = weighted_measure(ext, "between", 0.0, mc)
        assert est == pytest.approx(np.pi, abs=1e-12)  # indicator is 1 everywhere

    def test_circular_segment(self):
        ext = linear_reference_profile(0.0)
        mc = WeightedRegion(sample_count=10**6, seed=5)
        est, se = weighted_measure(ext, "ge_one", 0.0, mc)
        assert abs(est - SEGMENT_AREA) <= 3.0 * se

    def test_half_disk(self):
        ext = linear_reference_profile(0.0)
        mc = WeightedRegion(sample_count=10**6, seed=5)
        est, se = weighted_measure(ext, "le_zero", 0.0, mc)
        assert abs(est - np.pi / 2) <= 3.0 * se

    def test_doubling_samples_converges(self):
        # the WeightedRegion invariant: doubling the sample count moves the
        # estimate by less than three combined standard errors
        ext = linear_reference_profile(0.1)
        a = weighted_measure(ext, "between", 0.1, WeightedRegion(sample_count=100_000, seed=7))
        b = weighted_measure(ext, "between", 0.1, WeightedRegion(sample_count=200_000, seed=7))
        assert abs(a[0] - b[0]) <= 3.0 * np.hypot(a[1], b[1])

    def test_bit_reproducible(self):
        ext = linear_reference_profile(0.1)
        mc = WeightedRegion(sample_count=100_000, seed=11)
        assert weighted_measure(ext, "le_zero", 0.1, mc) == weighted_measure(
            ext, "le_zero", 0.1, mc
        )

    def test_sample_plan_shared_and_read_only(self):
        # the plan depends on count and seed only: equal regions share one
        # read-only array, equal to a fresh generation; 70 000 samples span
        # two chunks
        pts = WeightedRegion(sample_count=70_000, seed=12).sample_points()
        assert WeightedRegion(sample_count=70_000, seed=12).sample_points() is pts
        assert not pts.flags.writeable
        assert np.array_equal(pts, _sample_plan.__wrapped__(70_000, 12))

    def test_sample_count_validated(self):
        # a standard error needs two samples; zero or fewer is no plan at all
        for count in (0, -5):
            with pytest.raises(ValueError, match="sample_count must be positive"):
                WeightedRegion(sample_count=count)
        with pytest.raises(ValueError, match="sample_count must be at least 2"):
            WeightedRegion(sample_count=1)
        assert WeightedRegion(sample_count=2).sample_points().shape == (3, 2)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_chunked_samples_equal_one_plan(self, eps):
        # the samples are planned MC_CHUNK at a time; 3 chunks and a part
        ext = isoperimetric_family(1, eps, 2025)[0]
        mc = WeightedRegion(sample_count=3 * MC_CHUNK + 12_345, seed=19)
        pts = mc.sample_points()
        w = _trilinear(ext.values, _trilinear_plan(ext, *pts))
        for predicate, member in PREDICATES.items():
            samples = np.where(member(w), pts[2] ** eps, 0.0)
            expected = (
                np.pi * float(samples.mean()),
                np.pi * float(samples.std(ddof=1)) / np.sqrt(samples.size),
            )
            assert weighted_measure(ext, predicate, eps, mc) == expected

    def test_unknown_predicate(self):
        with pytest.raises(ValueError):
            weighted_measure(constant_half_field(), "nope", 0.0, WeightedRegion())

    def test_weight_must_be_the_fields_own(self):
        ext = linear_reference_profile(0.1)
        with pytest.raises(ValueError, match=r"eps 0\.0 is not ext\.weight_exponent 0\.1"):
            weighted_measure(ext, "le_zero", 0.0, WeightedRegion(sample_count=1000))


class TestIsoperimetric:
    def test_constant_passes_any_constant(self):
        (res,) = isoperimetric_check([constant_half_field()], 0.0, WeightedRegion(seed=2))
        assert res.lhs == 0.0
        assert res.passed

    def test_linear_profile_closed_forms(self):
        # all four integrals have closed forms; Monte Carlo within 3 sigma
        ext = linear_reference_profile(0.0)
        mc = WeightedRegion(sample_count=10**6, seed=13)
        (res,) = isoperimetric_check([ext], ISOPERIMETRIC_CONSTANT, mc)
        strip = np.pi / 2 - SEGMENT_AREA
        m_low, se_low = res.measures["low"]
        m_high, se_high = res.measures["high"]
        m_strip, se_strip = res.measures["strip"]
        m_grad, se_grad = res.measures["gradient"]
        assert abs(m_low - np.pi / 2) <= 3 * se_low
        assert abs(m_high - SEGMENT_AREA) <= 3 * se_high
        assert abs(m_strip - strip) <= 3 * se_strip
        # clamped gradient is 2 on the strip; grid smearing of the kink
        # keeps the quadrature within a few percent
        assert m_grad == pytest.approx(4.0 * strip, rel=0.05)
        assert res.passed

    def test_swap_invariance(self):
        ext = linear_reference_profile(0.1)
        flipped = ExtensionField(
            ext.base_grid, ext.z_levels, 1.0 - ext.values, ext.weight_exponent
        )
        mc = WeightedRegion(sample_count=200_000, seed=17)
        a, b = isoperimetric_check([ext, flipped], 1.0, mc)
        tol = 3 * np.hypot(a.lhs_std_error, b.lhs_std_error)
        assert abs(a.lhs - b.lhs) <= max(tol, 1e-12)
        assert abs(a.rhs - b.rhs) <= max(3 * np.hypot(a.rhs_std_error, b.rhs_std_error), 1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_family_subset_with_frozen_constant(self, eps):
        mc = WeightedRegion(sample_count=100_000, seed=19)
        fields = [linear_reference_profile(eps)] + isoperimetric_family(10, eps, 2025)
        results = isoperimetric_check(fields, ISOPERIMETRIC_CONSTANT, mc)
        assert len(results) == len(fields)
        assert all(res.passed for res in results)

    def test_frozen_constant_has_headroom(self):
        # the binding family member is the linear profile; the frozen
        # constant must exceed what it requires
        mc = WeightedRegion(sample_count=200_000, seed=23)
        (res,) = isoperimetric_check([linear_reference_profile(0.0)], 1.0, mc)
        assert res.lhs / res.rhs < ISOPERIMETRIC_CONSTANT

    def test_margin_is_the_verdict(self):
        # passed reads the margin rhs + 3 combined SE - lhs; a constant at
        # half the binding profile's measured ratio lhs / rhs fails
        ext = linear_reference_profile(0.0)
        mc = WeightedRegion(sample_count=200_000, seed=23)
        (unit,) = isoperimetric_check([ext], 1.0, mc)
        results = [
            isoperimetric_check([ext], constant, mc)[0]
            for constant in (ISOPERIMETRIC_CONSTANT, 0.5 * unit.lhs / unit.rhs)
        ]
        for res in results:
            combined = np.hypot(res.lhs_std_error, res.rhs_std_error)
            assert res.margin == res.rhs + 3 * combined - res.lhs
            assert res.passed == (res.lhs <= res.rhs + 3 * combined)
        assert results[0].passed and results[0].margin > 0
        assert not results[1].passed and results[1].margin < 0

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_set_measures_equal_weighted_measure(self, eps):
        # one set table and one estimator: the three set measures of the
        # check are exactly weighted_measure's
        ext = isoperimetric_family(1, eps, 2025)[0]
        mc = WeightedRegion(sample_count=70_000, seed=29)
        (res,) = isoperimetric_check([ext], ISOPERIMETRIC_CONSTANT, mc)
        for name, predicate in (("low", "le_zero"), ("high", "ge_one"), ("strip", "between")):
            assert res.measures[name] == weighted_measure(ext, predicate, eps, mc)
        assert all(res.measures[name][0] > 0.0 for name in ("low", "high", "strip"))


SWEEP_REGION = WeightedRegion(sample_count=20_000, seed=47)


@lru_cache(maxsize=1)
def mixed_lattice_sweep():
    """The 128^2 linear profile, two 64^2 members, the profile again (eps 0.1).

    Returns the fields and their one-field results.
    """
    profile = linear_reference_profile(0.1)
    fields = (profile, *isoperimetric_family(2, 0.1, 2025), profile)
    return fields, [
        isoperimetric_check([ext], ISOPERIMETRIC_CONSTANT, SWEEP_REGION)[0]
        for ext in fields
    ]


def count_plan_builds(monkeypatch):
    builds = []

    def counted(ext, *points):
        builds.append(ext.base_grid.n)
        return _trilinear_plan(ext, *points)

    monkeypatch.setattr("sqgdiag.degiorgi._trilinear_plan", counted)
    return builds


class TestFamilySweep:
    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0)])
    def test_one_plan_per_lattice(self, monkeypatch, order):
        fields, expected = mixed_lattice_sweep()
        builds = count_plan_builds(monkeypatch)
        got = isoperimetric_check(
            [fields[i] for i in order], ISOPERIMETRIC_CONSTANT, SWEEP_REGION
        )
        assert got == [expected[i] for i in order]
        assert sorted(builds) == [64, 128]

    def test_each_member_takes_its_own_weight(self, monkeypatch):
        # one call over weights 0.0 and 0.1 on two lattices equals one call
        # per weight, and still builds one plan per lattice
        zero, tenth = (
            [linear_reference_profile(eps), *isoperimetric_family(1, eps, 2025)]
            for eps in (0.0, 0.1)
        )
        a = isoperimetric_check(zero, ISOPERIMETRIC_CONSTANT, SWEEP_REGION)
        b = isoperimetric_check(tenth, ISOPERIMETRIC_CONSTANT, SWEEP_REGION)
        builds = count_plan_builds(monkeypatch)
        mixed = [zero[0], tenth[1], zero[1], tenth[0]]
        got = isoperimetric_check(mixed, ISOPERIMETRIC_CONSTANT, SWEEP_REGION)
        assert got == [a[0], b[1], a[1], b[0]]
        assert sorted(builds) == [64, 128]

    def test_member_measures_equal_weighted_measure_on_each_lattice(self):
        # one set-measure path: every member's three set measures, on the
        # 128^2 and the 64^2 lattice alike, are exactly weighted_measure's
        fields, results = mixed_lattice_sweep()
        for ext, res in zip(fields, results):
            for name, predicate in (("low", "le_zero"), ("high", "ge_one"), ("strip", "between")):
                assert res.measures[name] == weighted_measure(ext, predicate, 0.1, SWEEP_REGION)

    def test_no_plan_outlives_its_sweep(self, monkeypatch):
        # a second sweep on the same lattice builds its plan again: no
        # process-wide plan cache holds the sample-sized arrays
        fields, expected = mixed_lattice_sweep()
        builds = count_plan_builds(monkeypatch)
        for _ in range(2):
            got = isoperimetric_check(fields[1:3], ISOPERIMETRIC_CONSTANT, SWEEP_REGION)
            assert got == expected[1:3]
        assert builds == [64, 64]

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_family_rejected(self, count):
        # an empty sweep would pass vacuously
        with pytest.raises(ValueError, match="at least 1"):
            isoperimetric_family(count, 0.1, 2025)
        with pytest.raises(ValueError, match="at least one field"):
            isoperimetric_check([], ISOPERIMETRIC_CONSTANT, SWEEP_REGION)


def trilinear_oracle(values, grid, zl, x1, x2, z):
    """Trilinear sampling with three-array indexing, one field at a time."""
    h, n = grid.spacing, grid.n
    c = 0.5 * grid.side_length
    p1 = (x1 + c) / h
    p2 = (x2 + c) / h
    i0 = np.floor(p1).astype(int)
    j0 = np.floor(p2).astype(int)
    f1, f2 = p1 - i0, p2 - j0
    i0 %= n
    j0 %= n
    i1, j1 = (i0 + 1) % n, (j0 + 1) % n
    zi = np.clip(np.searchsorted(zl, z, side="right") - 1, 0, len(zl) - 2)
    fz = np.clip((z - zl[zi]) / (zl[zi + 1] - zl[zi]), 0.0, 1.0)

    def level(k):
        return (
            values[k, i0, j0] * (1 - f1) * (1 - f2)
            + values[k, i1, j0] * f1 * (1 - f2)
            + values[k, i0, j1] * (1 - f1) * f2
            + values[k, i1, j1] * f1 * f2
        )

    return level(zi) * (1 - fz) + level(zi + 1) * fz


def clamped_gradient_squared(ext):
    """|grad w|^2 of the field clamped to [0, 1], as the isoperimetric check takes it."""
    return _gradient_squared(np.clip(ext.values, 0.0, 1.0), ext.base_grid.spacing, ext.z_levels)


class TestSharedTrilinearPlan:
    def test_two_fields_on_one_plan_match_separate_calls(self):
        # points wrap the torus and leave the sampled z-range on both sides
        ext = isoperimetric_family(1, 0.1, 2025)[0]
        grad = clamped_gradient_squared(ext)
        grad_ext = ExtensionField(ext.base_grid, ext.z_levels, grad, 0.1)
        rng = np.random.default_rng(41)
        x1, x2 = rng.uniform(-5.0, 5.0, (2, 5000))
        z = rng.uniform(-0.1, 1.3, 5000)
        plan = _trilinear_plan(ext, x1, x2, z)
        for values, field in ((ext.values, ext), (grad, grad_ext)):
            got = _trilinear(values, plan)
            assert np.array_equal(got, _trilinear(values, _trilinear_plan(field, x1, x2, z)))
            oracle = trilinear_oracle(values, ext.base_grid, ext.z_levels, x1, x2, z)
            assert np.array_equal(got, oracle)

    def test_isoperimetric_measures_unchanged(self):
        ext = isoperimetric_family(1, 0.0, 2025)[0]
        mc = WeightedRegion(sample_count=50_000, seed=43)
        (res,) = isoperimetric_check([ext], ISOPERIMETRIC_CONSTANT, mc)
        pts = mc.sample_points()
        grad = clamped_gradient_squared(ext)
        grad_ext = ExtensionField(ext.base_grid, ext.z_levels, grad, 0.0)
        w = _trilinear(ext.values, _trilinear_plan(ext, *pts))
        g = _trilinear(grad, _trilinear_plan(grad_ext, *pts))
        zw = pts[2] ** 0.0
        assert res.measures["low"][0] == mc.volume() * float(np.where(w <= 0.0, zw, 0.0).mean())
        assert res.measures["gradient"][0] == mc.volume() * float((g * zw).mean())


def single_mode_history(n=128, alpha=0.95, t_end=0.5, n_snap=11):
    """The single-mode run's snapshots, its z-levels and weight exponent."""
    L = 4 * np.pi
    g = Grid(n, L)
    x1, _ = g.coordinates()
    theta0 = ScalarField(g, np.sin(x1))
    cfg = SolverConfig(alpha=alpha, dt=5e-3, t_end=t_end)
    res = run(theta0, cfg, snapshot_times=np.linspace(0, t_end, n_snap))
    z = np.unique(np.concatenate([trace_ladder(g), np.linspace(0, 2.0, 41)]))
    return res.history, z, cfg.epsilon


def single_mode_extension_run(n=128, alpha=0.95, t_end=0.5, n_snap=11):
    history, z, eps = single_mode_history(n, alpha, t_end, n_snap)
    exts = [extend(f, z, eps) for f in history]
    vels = [riesz_velocity(f) for f in history]
    cutoff = extension_cutoff(history[0].grid, z)
    return exts, vels, cutoff


@pytest.fixture(scope="module")
def single_mode_runs():
    """The default single-mode run at N = 64 and 128, shared by the module."""
    return {n: single_mode_extension_run(n=n) for n in (64, 128)}


def full_lattice_dirichlet(values, cut, z, eps, grid):
    """weighted_dirichlet_energy on the whole lattice: (value, estimate)."""
    prod = values * cut
    dz_prod = _z_derivative(prod, z)
    weight = half_spectrum(grid).gradient_weight
    g = np.empty(len(z))
    for j in range(len(z)):
        spec = rfft2(prod[j])
        g[j] = (np.sum(weight * (spec.real**2 + spec.imag**2)) + np.sum(dz_prod[j] ** 2)) * (
            grid.spacing**2
        )
    curv = np.abs(np.diff(g, 2))
    dz = np.diff(z)
    zmax = np.maximum(z[1:-1], z[2:]) ** eps if eps > 0 else np.ones(len(z) - 2)
    err = float(np.sum(curv * np.maximum(dz[:-1], dz[1:]) * zmax) / 12.0)
    return float(weighted_z_integral(z, g, eps)), err


def full_lattice_local_energy(history, cutoff, level, t1, t2):
    """local_energy_check's terms with every integrand on the whole lattice.

    Returns (lhs_terms, rhs_terms, budget).
    """
    times = np.array([ext.time_stamp for ext in history])
    sel = np.where((times >= t1 - 1e-12) & (times <= t2 + 1e-12))[0]
    first = history[0]
    grid, z, eps = first.base_grid, first.z_levels, first.weight_exponent
    h2 = grid.spacing**2
    cut = np.asarray(cutoff, dtype=float)
    grad_eta_sq = _gradient_squared(cut, grid.spacing, z)
    series = {k: [] for k in ("grad", "err", "x", "ext", "boundary")}
    for j in sel:
        psi = np.maximum(history[j].values - level, 0.0)
        value, err = full_lattice_dirichlet(psi, cut, z, eps, grid)
        series["grad"].append(value)
        series["err"].append(err)
        series["boundary"].append(np.sum((cut[0] * psi[0]) ** 2) * h2)
        series["x"].append(np.sum(grad_eta_sq[0] * psi[0] ** 2) * h2)
        per_level = np.sum(grad_eta_sq * psi**2, axis=(1, 2)) * h2
        series["ext"].append(weighted_z_integral(z, per_level, eps))
    series = {k: np.array(v) for k, v in series.items()}
    tt = times[sel]

    def trapezoid(f):
        return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(tt)))

    lhs = {"dissipation": trapezoid(series["grad"]), "end_energy": float(series["boundary"][-1])}
    rhs = {
        "start_energy": float(series["boundary"][0]),
        "cutoff_gradient_trace": trapezoid(series["x"]),
        "cutoff_gradient_extension": trapezoid(series["ext"]),
    }
    budget = 1e-6 * rhs["start_energy"] + trapezoid(series["err"])
    if len(tt) > 2:
        for f in (series["grad"], series["boundary"]):
            budget += float(np.sum(np.abs(np.diff(f, 2)))) * float(np.mean(np.diff(tt))) / 12.0
    return lhs, rhs, budget


def assert_matches_full_lattice(res, history, cutoff, level, t1, t2):
    lhs, rhs, budget = full_lattice_local_energy(history, cutoff, level, t1, t2)
    assert res.lhs_terms.keys() == lhs.keys() and res.rhs_terms.keys() == rhs.keys()
    for got, expected in [
        *zip(res.lhs_terms.values(), lhs.values()),
        *zip(res.rhs_terms.values(), rhs.values()),
        (res.budget, budget),
    ]:
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestLocalEnergy:
    def test_zero_field_trivial(self):
        g = Grid(64, 4 * np.pi)
        z = np.linspace(0, 2, 17)
        exts = [
            ExtensionField(g, z, np.zeros((17,) + g.shape), 0.05, t)
            for t in (0.0, 0.1, 0.2)
        ]
        vels = [riesz_velocity(ScalarField(g, np.zeros(g.shape), t)) for t in (0, 0.1, 0.2)]
        cutoff = extension_cutoff(g, z)
        res = local_energy_check(exts, vels, cutoff, 0.0, 0.0, 0.2, LOCAL_ENERGY_CONSTANT)
        assert res.passed
        assert sum(res.lhs_terms.values()) == 0.0
        assert res.rhs_terms["start_energy"] == 0.0

    def test_level_above_max_trivial(self):
        exts, vels, cutoff = single_mode_extension_run(n=64, t_end=0.2, n_snap=3)
        res = local_energy_check(exts, vels, cutoff, 5.0, 0.0, 0.2, LOCAL_ENERGY_CONSTANT)
        assert res.passed
        assert sum(res.lhs_terms.values()) == 0.0

    def test_single_mode_run_passes(self, single_mode_runs):
        exts, vels, cutoff = single_mode_runs[128]
        res = local_energy_check(exts, vels, cutoff, 0.0, 0.0, 0.5, LOCAL_ENERGY_CONSTANT)
        assert res.passed
        assert res.margin > 0.0

    def test_half_the_binding_constant_fails(self, single_mode_runs):
        # negative control: C1 at which the margin vanishes, then half of it
        exts, vels, cutoff = single_mode_runs[128]
        res = local_energy_check(exts, vels, cutoff, 0.0, 0.0, 0.5, LOCAL_ENERGY_CONSTANT)
        lhs, rhs = res.lhs_terms, res.rhs_terms
        binding = (sum(lhs.values()) - res.budget - rhs["start_energy"]) / (
            rhs["cutoff_gradient_trace"] + rhs["cutoff_gradient_extension"]
        )
        assert binding == pytest.approx(0.1399, abs=1e-4)
        assert binding < LOCAL_ENERGY_CONSTANT
        half = local_energy_check(exts, vels, cutoff, 0.0, 0.0, 0.5, binding / 2)
        assert not half.passed
        assert half.margin < 0.0
        assert half.lhs_terms == lhs and half.budget == res.budget

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("level", [0.0, 0.5])
    def test_terms_match_full_lattice(self, single_mode_runs, n, level):
        exts, vels, cutoff = single_mode_runs[n]
        box = cutoff_box(cutoff, exts[0].values.shape)[1]
        assert box[0].stop - box[0].start < n and box[1].stop - box[1].start < n
        res = local_energy_check(exts, vels, cutoff, level, 0.0, 0.5, LOCAL_ENERGY_CONSTANT)
        assert_matches_full_lattice(res, exts, cutoff, level, 0.0, 0.5)

    @pytest.mark.parametrize("level", [0.0, 0.3])
    def test_whole_grid_box_matches_full_lattice(self, level):
        # on Grid(64, 4) the support spans nodes 2..62, so the padded box
        # does not fit and the terms are taken on the whole lattice
        g = Grid(64, 4.0)
        theta0 = random_band_limited(g, 3, [13, 0, 0])
        cfg = SolverConfig(alpha=0.95, dt=5e-3, t_end=0.1)
        hist = run(theta0, cfg, snapshot_times=np.linspace(0, 0.1, 3)).history
        z = np.linspace(0.0, 2.0, 17)
        exts = [extend(f, z, cfg.epsilon) for f in hist]
        vels = [riesz_velocity(f) for f in hist]
        cutoff = extension_cutoff(g, z)
        assert cutoff_box(cutoff, exts[0].values.shape)[1] == (slice(0, 64), slice(0, 64))
        res = local_energy_check(exts, vels, cutoff, level, 0.0, 0.1, LOCAL_ENERGY_CONSTANT)
        assert res.lhs_terms["dissipation"] > 0.0
        assert_matches_full_lattice(res, exts, cutoff, level, 0.0, 0.1)

    def test_peak_memory_below_one_extension_field(self, single_mode_runs):
        exts, vels, cutoff = single_mode_runs[128]
        tracemalloc.start()
        try:
            local_energy_check(exts, vels, cutoff, 0.0, 0.0, 0.5, LOCAL_ENERGY_CONSTANT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < exts[0].values.nbytes

    def test_held_extensions_below_one_level_stack(self):
        # extend keeps the trace's half spectrum, not the (n_z, n, n) stack
        history, z, eps = single_mode_history(n=128)
        extend(history[0], z, eps)  # the shared profile table, cached before tracing
        tracemalloc.start()
        try:
            exts = [extend(f, z, eps) for f in history]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(exts) == 11 and len(z) == 45
        assert held < len(z) * 128 * 128 * 8

    @pytest.mark.parametrize("n", [64, 128])
    def test_stacked_levels_give_the_same_terms(self, single_mode_runs, n):
        # the same levels wrapped as array-backed fields: identical arithmetic
        exts, vels, cutoff = single_mode_runs[n]
        stacked = [
            ExtensionField(e.base_grid, e.z_levels, e.values, e.weight_exponent, e.time_stamp)
            for e in exts
        ]
        results = [
            local_energy_check(fields, vels, cutoff, 0.0, 0.0, 0.5, LOCAL_ENERGY_CONSTANT)
            for fields in (exts, stacked)
        ]
        lazy, eager = [repr((r.lhs_terms, r.rhs_terms, r.budget, r.margin)) for r in results]
        assert lazy == eager

    @pytest.mark.parametrize(
        "relabel",
        [
            lambda ext, j: (ext.base_grid, ext.z_levels * (1.5 if j % 2 else 1.0), 0.05),
            lambda ext, j: (ext.base_grid, ext.z_levels, 0.3 if j % 2 else 0.05),
            lambda ext, j: (Grid(64, 4.0) if j % 2 else ext.base_grid, ext.z_levels, 0.05),
        ],
        ids=["top_z_2_and_3", "eps_0.05_and_0.3", "side_4pi_and_4"],
    )
    def test_snapshot_off_the_lattice_rejected(self, relabel):
        exts, vels, cutoff = single_mode_extension_run(n=64, t_end=0.2, n_snap=3)
        mixed = []
        for j, e in enumerate(exts):
            grid, z, eps = relabel(e, j)
            mixed.append(ExtensionField(grid, z, e.values, eps, e.time_stamp))
        with pytest.raises(ValueError, match="snapshot 1 "):
            local_energy_check(mixed, vels, cutoff, 0.0, 0.0, 0.2, LOCAL_ENERGY_CONSTANT)

    def test_cutoff_off_the_lattice_rejected(self):
        exts, vels, cutoff = single_mode_extension_run(n=64, t_end=0.2, n_snap=3)
        for bad in (cutoff[1:], cutoff[0, :-1], cutoff[0, 0], cutoff[None]):
            with pytest.raises(ValueError, match="cutoff shape"):
                local_energy_check(exts, vels, bad, 0.0, 0.0, 0.2, LOCAL_ENERGY_CONSTANT)

    def test_time_grid_mismatch_rejected(self):
        exts, vels, cutoff = single_mode_extension_run(n=64, t_end=0.2, n_snap=3)
        assert [v.time_stamp for v in vels] == [e.time_stamp for e in exts]
        with pytest.raises(ValueError, match="mismatch"):
            local_energy_check(exts, vels[:-1], cutoff, 0.0, 0.0, 0.2, 1.0)
        # as many velocities as snapshots, but at t = 5, 6, 7
        g = exts[0].base_grid
        late = [riesz_velocity(ScalarField(g, np.zeros(g.shape), t)) for t in (5.0, 6.0, 7.0)]
        with pytest.raises(ValueError, match="mismatch"):
            local_energy_check(exts, late, cutoff, 0.0, 0.0, 0.2, 1.0)
