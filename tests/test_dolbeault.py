"""Cutoff band oracle: frozen values, invariances, refinement order."""

import cmath
import math

import numpy as np
import pytest

from convlap import dolbeault
from convlap.convexgeom import ConvexBody, ConvexRegion, signed_distance
from convlap.dolbeault import AreaResult, CutoffProfile, area_laplace, cutoff_eval
from convlap.transforms import MeromorphicDatum, polya_transform, residue_oracle

TWO_PI_I = 2j * math.pi
UNIT_DISK = ConvexBody([0j], rounding=1.0)
ROUND_SQUARE = ConvexBody([0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j,
                           0.5 - 0.5j], rounding=0.25)
SHARP_SQUARE = ConvexBody([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])


def test_cutoff_frozen_values():
    p = CutoffProfile(UNIT_DISK, 1.0)
    assert cutoff_eval(p, 0j) == 0.0
    assert cutoff_eval(p, 3 + 0j) == 1.0
    # Band is 1.5 <= |z| <= 2; the smoothstep is odd about its midpoint.
    assert cutoff_eval(p, 1.75 + 0j) == pytest.approx(0.5, abs=1e-14)
    assert cutoff_eval(CutoffProfile(UNIT_DISK, 1.0, "cubic"),
                       1.75j) == pytest.approx(0.5, abs=1e-14)
    assert cutoff_eval(p, 1.5 + 0j) == 0.0
    assert cutoff_eval(p, 2 + 0j) == 1.0
    assert p(1.75j) == cutoff_eval(p, 1.75j)


def test_cutoff_monotone_and_in_range():
    for order in ("cubic", "quintic"):
        p = CutoffProfile(ROUND_SQUARE, 0.5, order)
        vals = [cutoff_eval(p, complex(x, 0.2)) for x in
                [0.7 + 0.02 * k for k in range(31)]]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_profile_thickenings_and_validation():
    p = CutoffProfile(ROUND_SQUARE, 0.5)
    assert p.inner.rounding == pytest.approx(0.5)
    assert p.outer.rounding == pytest.approx(0.75)
    assert p.inner.vertices == ROUND_SQUARE.vertices
    with pytest.raises(TypeError):
        CutoffProfile(ConvexRegion([(1.0, 0.0, 1.0)]), 0.5)
    with pytest.raises(ValueError):
        CutoffProfile(UNIT_DISK, 0.0)
    with pytest.raises(ValueError, match="septic"):
        CutoffProfile(UNIT_DISK, 1.0, "septic")


def test_area_reproduces_simple_residues():
    p = CutoffProfile(UNIT_DISK, 1.0)
    got = area_laplace(MeromorphicDatum([(0j, 1, 1.0)]), p, 0j, grid=512)
    assert abs(got.value - TWO_PI_I) <= 1e-4
    got = area_laplace(MeromorphicDatum([(0.3 + 0j, 1, 1.0)]), p, 1 + 0j,
                       grid=512)
    assert abs(got.value - TWO_PI_I * cmath.exp(0.3)) <= 1e-4


def test_area_invariant_under_eps_and_order():
    u = MeromorphicDatum([(0.3 + 0j, 1, 1.0), (-0.2j, 2, 0.5 + 1j)])
    w = 1.5 - 0.5j
    variants = [
        area_laplace(u, CutoffProfile(UNIT_DISK, 1.0), w, grid=512),
        area_laplace(u, CutoffProfile(UNIT_DISK, 0.5), w, grid=512),
        area_laplace(u, CutoffProfile(UNIT_DISK, 1.0, "cubic"), w, grid=512),
    ]
    for a, b in zip(variants, variants[1:]):
        assert abs(a.value - b.value) <= 2e-4


def test_area_agrees_with_contour_lane():
    u = MeromorphicDatum([(0.2 - 0.1j, 3, 1.5 - 0.5j), (-0.25j, 2, 1.0)])
    p = CutoffProfile(UNIT_DISK, 1.0)
    v = polya_transform(u, UNIT_DISK, 3.0)
    for w in (0j, 2 + 0j, -1 + 1j, 1.4 - 1.4j):
        area = area_laplace(u, p, w, grid=512)
        contour, cerr = v.with_error(w)
        assert abs(area.value - contour) <= area.error + cerr


def test_refinement_order():
    u = MeromorphicDatum([(0.2 - 0.1j, 3, 1.5 - 0.5j), (-0.25j, 2, 1.0)])
    p = CutoffProfile(ROUND_SQUARE, 0.5)
    w = 1 + 1j
    ref = residue_oracle(u, w)
    errs = [abs(area_laplace(u, p, w, grid=g).value - ref)
            for g in (128, 256, 512, 1024)]
    assert errs[1] < errs[0]              # drops cleanly below saturation
    assert max(errs[2:]) <= 1e-11         # then sits at roundoff


def test_sharp_cornered_body_supported():
    p = CutoffProfile(SHARP_SQUARE, 0.5)
    got = area_laplace(MeromorphicDatum([(0.3 + 0j, 1, 1.0)]), p, 1 + 0j,
                       grid=512)
    assert abs(got.value - TWO_PI_I * cmath.exp(0.3)) <= 1e-4


def test_error_estimate_dominates_true_error():
    u = MeromorphicDatum([(0.3 + 0j, 1, 1.0)])
    p = CutoffProfile(UNIT_DISK, 1.0)
    for w in (0j, 1 + 0j, 2 - 1j):
        got = area_laplace(u, p, w, grid=256)
        assert abs(got.value - residue_oracle(u, w)) <= got.error


def test_error_estimate_honest_near_the_band():
    # Poles 0.05-0.15 inside the inner band edge and |w| <= 7, where the
    # grids below 512 are far from resolved: the coarse pass is a true
    # half of the fine one in both directions, so their gap still bounds
    # the oracle gap.
    rng = np.random.default_rng(8)
    for body, eps in ((UNIT_DISK, 1.0), (ROUND_SQUARE, 0.5)) * 12:
        terms = []
        while len(terms) < rng.integers(1, 4):
            a = complex(*rng.uniform(-1.5, 1.5, 2))
            if 0.05 <= 0.5 * eps - signed_distance(body, a) <= 0.15:
                terms.append((a, int(rng.integers(1, 4)),
                              complex(*rng.uniform(-2, 2, 2))))
        u = MeromorphicDatum(terms)
        w = rng.uniform(0, 7) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        ref = residue_oracle(u, w)
        for grid in (64, 128, 256, 512, 1024):
            got = area_laplace(u, CutoffProfile(body, eps), w, grid=grid)
            assert abs(got.value - ref) <= got.error, (terms, w, grid)


def test_extrapolated_value_beats_the_fine_pass():
    # Poles near the inner band edge and a large e^{zw}.
    u = MeromorphicDatum([(-0.537 - 0.191j, 1, -0.331 - 0.430j),
                          (-0.583 - 0.508j, 3, 1.945 - 1.177j),
                          (0.163 - 0.312j, 3, -0.151 + 1.001j),
                          (-0.069 - 0.438j, 2, 0.437 + 0.013j),
                          (-0.573 - 0.404j, 3, 1.875 - 1.770j)])
    p = CutoffProfile(UNIT_DISK, 1.0)
    w = -1.884 + 1.371j
    got = area_laplace(u, p, w, grid=512)
    gap = abs(got.value - residue_oracle(u, w))
    assert gap <= 1e-6
    assert gap <= got.error


def test_overflow_is_named():
    # e^{zw} peaks at e^{2|w|} on the band around the unit disk (eps 1):
    # past the float range a named error, not nan or a bare OverflowError.
    u = MeromorphicDatum([(0j, 1, 1.0)])
    p = CutoffProfile(UNIT_DISK, 1.0)
    for w in (360 + 0j, 500 + 0j):
        with pytest.raises(OverflowError, match="log_abs"):
            area_laplace(u, p, w)


def test_pole_placement_rejected():
    p = CutoffProfile(UNIT_DISK, 1.0)
    with pytest.raises(ValueError, match="band"):
        area_laplace(MeromorphicDatum([(1.7 + 0j, 1, 1.0)]), p, 0j)
    with pytest.raises(ValueError, match="3"):
        area_laplace(MeromorphicDatum([(3 + 0j, 1, 1.0)]), p, 0j)
    # On the inner boundary is still too far out.
    with pytest.raises(ValueError):
        area_laplace(MeromorphicDatum([(1.5 + 0j, 1, 1.0)]), p, 0j)


def test_input_validation_and_flags():
    u = MeromorphicDatum([(0j, 1, 1.0)])
    p = CutoffProfile(UNIT_DISK, 1.0)
    with pytest.raises(ValueError):
        area_laplace(u, p, complex("inf"))
    with pytest.raises(ValueError):
        area_laplace(u, p, 0j, grid=16)
    with pytest.raises(TypeError):
        area_laplace(u, "not a profile", 0j)
    # The estimate includes the roundoff floor, 16 eps sum |terms| (~2e-14).
    assert 1e-15 < area_laplace(u, p, 0j, grid=256).error <= 1e-2


def test_deterministic_revaluation(monkeypatch):
    u = MeromorphicDatum([(0.1 + 0.1j, 2, 1 - 1j)])
    p = CutoffProfile(ROUND_SQUARE, 0.5)
    a = area_laplace(u, p, 1 + 2j, grid=256)
    # The second call reads the band rule cached for (p, 256): no
    # Golub-Welsch eigensolve, no new entry.
    eigh = np.linalg.eigh
    solves = []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *args: solves.append(1) or eigh(*args))
    size = dolbeault._band_nodes.cache_info().currsize
    b = area_laplace(u, p, 1 + 2j, grid=256)
    assert solves == []
    assert dolbeault._band_nodes.cache_info().currsize == size
    assert dolbeault._band_nodes.cache_info().maxsize <= 16
    for z, weights in dolbeault._band_nodes(p, 256):
        assert not (z.flags.writeable or weights.flags.writeable)
    assert a == b
    assert isinstance(a, AreaResult)


def test_band_nodes_take_three_across_on_both_passes():
    # Along the band the fine pass has 2 ceil(grid share / 16) panels of
    # 8 nodes per patch and the coarse pass half as many; across it both
    # take the same 3 Gauss nodes at every grid, exact for quartic psi'.
    pentagon = ConvexBody([0.6 * cmath.exp(0.4j * math.pi * k)
                           for k in range(5)], rounding=0.1)
    want = {  # fine nodes at grids 64, 128, ..., 2048
        UNIT_DISK: (192, 384, 768, 1536, 3072, 6144),
        ROUND_SQUARE: (384, 576, 960, 1728, 3264, 6336),
        pentagon: (480, 480, 960, 1680, 3360, 6240),
    }
    for body, counts in want.items():
        p = CutoffProfile(body, 0.3)
        for grid, count in zip((64, 128, 256, 512, 1024, 2048), counts):
            (z, w), (z_c, w_c) = dolbeault._band_nodes(p, grid)
            assert (z.size, z_c.size) == (count, count // 2)
            across = [np.abs(a.reshape(-1, 3) - a.reshape(-1, 3)[:, :1])
                      for a in (z, z_c)]
            for gaps in across:  # 3 distances from each ray's first node
                assert np.allclose(gaps, gaps[0], rtol=0.0, atol=1e-12)
            u = MeromorphicDatum([(0.1j, 1, 1.0)])
            assert area_laplace(u, p, 0.5j, grid=grid).nodes == count


def test_band_nodes_orientation():
    # dbar of (1/z) dz over the band around the unit disk gives 2 pi i:
    # the band weights carry the orientation of the boundary.
    p = CutoffProfile(ConvexBody([0j], rounding=1.0), 1.0)
    (z, w), _ = dolbeault._band_nodes(p, 64)
    assert abs(complex(np.sum(w / z)) - 2j * math.pi) <= 1e-12


def test_gauss_legendre_matches_numpy():
    for n in (3, 4, 8, 16, 32):
        x, w = dolbeault._gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.abs(x - ref_x).max() <= 1e-14
        assert np.abs(w - ref_w).max() <= 1e-14
