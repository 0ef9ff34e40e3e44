"""The eigenvalue paths behind ``classify._region_clusters`` against
independent oracles: the dense inverse for the Wiener-Hopf block, scipy's
QZ and the contour engine for the bandwidth-1 pencil, dense sections, the
singular values of S(lam), the window eigenproblem for one-sided tails, and
the seed-by-seed Newton iteration for the batched one.  The engine counts
on the curve itself, so its lists also hold the eigenvalues next to the
curve."""

import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eig

from conftest import load_perfbench
from opspectra import (constant_diagonal, diagonal, embed_at,
                       from_dense_corner, gram, load_bundled, min_modulus,
                       spectral_area, spectral_summary, suites, symbol, toeplitz)
from opspectra import numerics
from opspectra.classify import _region_clusters
from opspectra.numerics import (_corner_coupling, _schur_newton, cluster_values,
                                operator_norm)
from opspectra.symbols import (PointOnCurve, _curve_distance, _curve_symmetry, _geometric_product,
                               _tail_span, _wiener_hopf_block, _zero_winding_mask,
                               kernel_count_by_truncation, winding)
from reference_spectra import (raster_regions, region_clusters_by_contour,
                               region_clusters_by_sections, schur_newton_per_seed,
                               zero_winding_by_winding)

workloads = load_perfbench("workloads")
tracer = load_perfbench("tracer")
classify_module = importlib.import_module("opspectra.classify")
symbols_module = importlib.import_module("opspectra.symbols")


def region(t):
    """The membership mask of the region D and the scale that
    ``_region_clusters`` uses for t: winding 0 inside the circle of radius
    1.05 scale, farther than 1e-6 scale from the curve."""
    scale = max(1.0, operator_norm(t))
    return (lambda z: _zero_winding_mask(t, z, 1.05 * scale, 1e-6 * scale)), scale


def schur_complement(t, lam):
    m, w = len(t.window), len(t.tails) // 2
    offsets = np.flatnonzero(t.tails) - w
    p, q = offsets.max(), -offsets.min()
    g, ok = _wiener_hopf_block(t.tails, [lam])
    assert ok[0]
    return (t.window - lam * np.eye(m)
            - t._block(m, m + q)[:, m:] @ g[0] @ t._block(m + p, m)[m:, :])


def at_winding_zero(sym, lam):
    try:
        return winding(sym, lam) == 0
    except PointOnCurve:
        return False


@pytest.mark.parametrize("seed", range(6))
def test_wiener_hopf_block_is_the_leading_block_of_the_inverse(seed):
    rng = np.random.default_rng(seed)
    p, q = (int(k) for k in rng.integers(1, 4, 2))
    t = toeplitz({k: complex(*rng.uniform(-1, 1, 2)) for k in range(-q, p + 1)})
    lams = rng.uniform(-3, 3, 12) + 1j * rng.uniform(-3, 3, 12)
    g, ok = _wiener_hopf_block(t.tails, lams)
    checked = 0
    for lam, block, split in zip(lams, g, ok):
        if not at_winding_zero(symbol(t), lam):
            assert not split
            continue
        assert split
        if _curve_distance(symbol(t), lam) < 0.3:   # the section converges slowly
            continue
        dense = np.linalg.inv((t - constant_diagonal(lam)).truncate(400))[:q, :p]
        assert np.max(np.abs(block - dense)) <= 1e-12 * np.max(np.abs(dense))
        checked += 1
    assert checked


def _convolved_series(ratios, n):
    out = np.zeros(n, dtype=complex)
    out[0] = 1.0
    for rho in ratios:
        out = np.convolve(out, rho ** np.arange(n))[:n]
    return out


def test_geometric_product_matches_convolved_series():
    """For r ratios in the unit disc and n coefficients, both 1 to 16, to
    1e-13 of the same series with |rho_i| in place of rho_i, which bounds
    every partial sum."""
    rng = np.random.default_rng(3)
    for r in range(1, 17):
        for n in range(1, 17):
            ratios = (np.sqrt(rng.uniform(0, 1, (4, r)))
                      * np.exp(2j * np.pi * rng.uniform(0, 1, (4, r))))
            got = _geometric_product(ratios, n)
            for row, rho in zip(got, ratios):
                bound = _convolved_series(np.abs(rho), n).real
                assert np.all(np.abs(row - _convolved_series(rho, n)) <= 1e-13 * bound)


def test_geometric_product_memory_is_linear_in_rows_and_coefficients():
    """Its working arrays hold rows x max(ratios, n) values, not a Toeplitz
    matrix per row and ratio: callers pass whole batches of lam."""
    ratios = 0.9 * np.exp(2j * np.pi * np.random.default_rng(5).uniform(0, 1, (256, 16)))
    tracemalloc.start()
    _geometric_product(ratios, 16)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 8 * ratios.size * ratios.itemsize


def test_wiener_hopf_block_drops_outer_tails_below_rounding():
    tails = np.array([0.3 - 0.2j, 1.0, 2.5, 0.7j, 0.2])
    lams = np.array([6.0, -4.0 + 3.0j, 5.0j])
    g, ok = _wiener_hopf_block(tails, lams)
    padded, padded_ok = _wiener_hopf_block(np.concatenate([[1e-30], tails, [2e-30j]]),
                                           lams)
    assert ok.all() and padded_ok.all()
    np.testing.assert_allclose(padded, g, rtol=0, atol=1e-14 * np.max(np.abs(g)))


@pytest.mark.parametrize("key", [(1, 8, 0), (1, 8, 1), (1, 16, 0), (1, 16, 1)])
def test_bandwidth_one_pencil(key):
    """For p = q = 1, lam = a(r) with r the root inside the disc, and
    r S(a(r)) = r^2 a_1 (E - I) + r (W - a_0 I) - a_-1 I, E = e_(m-1) e_(m-1)^T:
    a quadratic eigenproblem in r.  scipy's QZ on its 2m linearization in r
    gives the values in D that ``_region_clusters`` lists from the companion
    matrix in 1 / r."""
    t = workloads.generic_base(*key)
    a_m1, a0, a1 = t.tails
    m = len(t.window)
    e = np.zeros((m, m))
    e[-1, -1] = 1.0
    eye, zero = np.eye(m), np.zeros((m, m))
    quad, lin, const = a1 * (e - eye), t.window - a0 * eye, -a_m1 * eye
    r = eig(np.block([[zero, eye], [-const, -lin]]),
             np.block([[eye, zero], [zero, quad]]), right=False)
    r = r[np.isfinite(r)]
    r = r[(np.abs(r) < 1) & (np.abs(a_m1 / (a1 * r)) > 1)]   # one root in the disc
    pencil = a_m1 / r + a0 + a1 * r
    contains, scale = region(t)
    pencil = pencil[contains(pencil)]
    found, certified = _region_clusters(t)
    listed = np.array([v for v, _ in found])
    assert certified and len(listed) == len(pencil)
    assert all(np.min(np.abs(pencil - v)) <= 1e-10 * scale for v in listed)


def _bandwidth_one_draw(rng, corner=12, ratio=None):
    """a_-1 / z + a_0 + a_1 z with uniform coefficients, or with |a_-1 / a_1|
    = 10^U(``ratio``), plus an n x n complex Gaussian head, n < ``corner``."""
    coeffs = {k: complex(*rng.uniform(-1, 1, 2)) for k in (-1, 0, 1)}
    if ratio is not None:
        coeffs[-1] = coeffs[1] * 10 ** rng.uniform(*ratio) * np.exp(2j * np.pi * rng.uniform())
    n = int(rng.integers(1, corner))
    head = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * rng.uniform(0.2, 2)
    return toeplitz(coeffs) + from_dense_corner(head)


def _bandwidth_one_cases():
    """The 4 bandwidth-1 pool bases, 30 draws with corners 1-11 and 32 with
    corners 1-40 and |a_-1 / a_1| from 1e-9 to 1e6."""
    ops = [workloads.generic_base(*key) for key in workloads.GENERIC_POOL if key[0] == 1]
    rng = np.random.default_rng(11)
    ops += [_bandwidth_one_draw(rng) for _ in range(30)]
    rng = np.random.default_rng(12)
    return ops + [_bandwidth_one_draw(rng, 41, (-9, 6)) for _ in range(32)]


def test_bandwidth_one_pencil_against_the_contour_engine():
    """The contour engine, which counts on the curve itself, lists what the
    pencil lists, with the same multiplicities, to 1e-9 scale, both lists
    certified; the eigenvalues next to the curve included (at least one
    within 0.01 of it), each a singular point of S to 1e-12 scale (relative
    to its largest singular value would read 1 for a 1 x 1 S)."""
    near_curve = 0
    for t in _bandwidth_one_cases():
        _, scale = region(t)
        found, certified = _region_clusters(t)
        engine, engine_certified = region_clusters_by_contour(t)
        assert certified and engine_certified
        assert [k for _, k in found] == [k for _, k in engine]
        assert all(abs(v - z) <= 1e-9 * scale for (v, _), (z, _) in zip(found, engine))
        for v, _ in found:
            if _curve_distance(symbol(t), v) <= 0.01:
                near_curve += 1
                smin = np.linalg.svd(schur_complement(t, v), compute_uv=False)[-1]
                assert smin <= 1e-12 * scale
    assert near_curve >= 1


def test_pencil_branch_makes_no_winding_call(monkeypatch):
    """The root test |r| < 1 < |a_-1 / (a_1 r)| puts every pencil value at
    winding 0, and the listing rule (``_zero_winding_mask``) reads winding 0
    from the same root split, not from ``winding``: with ``symbols.winding``
    refused the lists are those the winding test keeps, every value at
    winding 0."""
    def refuse(*args):
        raise AssertionError("winding called")

    monkeypatch.setattr(symbols_module, "winding", refuse)
    for t in _bandwidth_one_cases():
        found, certified = _region_clusters(t)
        assert certified and all(winding(symbol(t), v) == 0 for v, _ in found)


def test_pencil_lists_the_eigenvalue_next_to_the_curve():
    """The 23rd draw of the 30 has an eigenvalue 0.0022 from its curve: the
    pencil and the contour engine list it, and dense sections reach it to
    3.5e-13 at size 800."""
    rng = np.random.default_rng(11)
    for _ in range(22):
        _bandwidth_one_draw(rng)
    t = _bandwidth_one_draw(rng)
    found, certified = _region_clusters(t)
    (v, k), = found
    assert certified and k == 1 and abs(v - (-1.3579 + 0.5732j)) <= 1e-4
    assert 0.002 <= _curve_distance(symbol(t), v) <= 0.0025
    ((z, j),), engine_certified = region_clusters_by_contour(t)
    assert engine_certified and j == 1 and abs(z - v) <= 1e-9
    assert np.min(np.abs(np.linalg.eigvals(t.truncate(800)) - v)) <= 1e-12


def test_pencil_counts_a_jordan_block():
    """A Jordan block at 3 beside a bandwidth-1 tail is one cluster of
    multiplicity 2 near 3, certified."""
    jordan = from_dense_corner([[3, 1], [0, 3]]) + embed_at(toeplitz({-1: 1.0, 1: 0.5}), 2)
    found, certified = _region_clusters(jordan)
    (v, k), = found
    assert certified and k == 2 and abs(v - 3) <= 1e-9


def _tail_beside_corner(seed, offsets, corner, symmetric=False):
    """T(a) + K with complex N(0, 1) coefficients at ``offsets`` (a_-k = a_k
    when ``symmetric``) and an n x n complex Gaussian corner scaled by
    1 / sqrt(n)."""
    rng = np.random.default_rng(seed)
    coeffs = {k: complex(*rng.normal(size=2)) for k in offsets}
    if symmetric:
        coeffs = {k: coeffs[abs(k)] for k in offsets}
    head = (rng.normal(size=(corner, corner))
            + 1j * rng.normal(size=(corner, corner))) / np.sqrt(corner)
    return toeplitz(coeffs) + from_dense_corner(head)


# tails beyond the pool's: p != q, gcd 2 with bandwidth 6, gcd 3, a_-k = a_k
OTHER_TAILS = [(7, range(-4, 3), 8), (1, (0, 2, -2, 4, -4, 6, -6), 9),
               (1, (0, 3, -3, 6, -6), 8), (0, range(-2, 3), 8, True)]


def _dense_cases():
    ops = [workloads.generic_base(*key) for key in ((2, 16, 0), (3, 8, 2))]
    return ops + [suites.random_toeplitz_corner(np.random.default_rng(4))] + [
        _tail_beside_corner(*case) for case in OTHER_TAILS[:3]]


@pytest.mark.parametrize("t", _dense_cases())
def test_engine_against_dense_sections(t):
    """Every listed eigenvalue is an eigenvalue of the 1024 section to
    1e-8 scale, and every eigenvalue in D and 0.1 scale from the curve on
    which the 256 and 512 sections agree is listed."""
    _, scale = region(t)
    found, certified = _region_clusters(t)
    assert certified
    listed = np.array([v for v, _ in found])
    dense = np.linalg.eigvals(t.truncate(1024))
    assert all(np.min(np.abs(dense - v)) <= 1e-8 * scale for v in listed)
    _far_section_eigenvalues_are_listed(t, listed)


def _far_section_eigenvalues_are_listed(t, listed):
    """Every eigenvalue in D and 0.1 scale from the curve on which the 256
    and 512 sections agree is in ``listed`` to 1e-8 scale."""
    contains, scale = region(t)
    sym = symbol(t)

    def far_in_region(z):
        return np.array([bool(contains(np.array([v]))[0])
                         and _curve_distance(sym, v) > 0.1 * scale for v in z],
                        dtype=bool)

    clusters, agree = region_clusters_by_sections(t, far_in_region, trunc=256)
    assert agree
    for v, _ in clusters:
        assert np.min(np.abs(listed - v), initial=np.inf) <= 1e-8 * scale


def _certificate_cases():
    ops = [workloads.generic_base(*key) for key in workloads.GENERIC_POOL]
    rng = np.random.default_rng(11)
    return ops + [suites.random_toeplitz_corner(rng) for _ in range(6)] + [
        _tail_beside_corner(*case) for case in OTHER_TAILS]


def _corner_family(n):
    """A bandwidth-2 tail with complex N(0, 1) coefficients and an n x n
    complex Gaussian corner scaled by 1 / sqrt(n), both from seed 3."""
    rng = np.random.default_rng(3)
    tail = [complex(*rng.normal(size=2)) for _ in range(5)]
    head = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    return toeplitz(dict(zip(range(-2, 3), tail))) + from_dense_corner(head)


@pytest.mark.parametrize("t, count", [
    (_corner_family(32), 7), (_corner_family(64), 19),
    (_tail_beside_corner(*OTHER_TAILS[3]), 7),
])
def test_eigenvalues_next_to_the_curve_are_listed(t, count):
    """Counted on the curve itself, the list holds the eigenvalues next to
    it: 7 and 19 for the corner family at n = 32 and 64, and 7 for the tail
    with a_-k = a_k, each simple, certified, a singular point of S to
    1e-12 scale and an eigenvalue of the 1200 section to 1e-8 scale.  The
    one at n = 64 that lies 0.0095 from the curve decays slowly: there the
    1200 section is 100 times closer than the 600 one instead.  The
    sections' eigenvalues far from the curve are all listed."""
    _, scale = region(t)
    found, certified = _region_clusters(t)
    assert certified and len(found) == count and all(k == 1 for _, k in found)
    big, small = (np.linalg.eigvals(t.truncate(n)) for n in (1200, 600))
    for v, _ in found:
        assert np.linalg.svd(schur_complement(t, v), compute_uv=False)[-1] <= 1e-12 * scale
        error = np.min(np.abs(big - v))
        assert error <= 1e-8 * scale or 100 * error <= np.min(np.abs(small - v))
    _far_section_eigenvalues_are_listed(t, np.array([v for v, _ in found]))


def _record_curve_samples(monkeypatch):
    """A list that collects the parameters theta (mod 2 pi) at which the
    count evaluates ``_boundary_block``."""
    taken = []
    block = numerics._boundary_block

    def recorded(tails, theta, side):
        taken.append(np.asarray(theta) % (2 * np.pi))
        return block(tails, theta, side)

    monkeypatch.setattr(numerics, "_boundary_block", recorded)
    return taken


def test_changes_of_side_between_samples_are_found(monkeypatch):
    """Along the curve of the tail with offsets -4..2 from seed 0 the side
    changes twice within one of the 128 first steps, at three places: three
    small loops of side 0 split the curve into three runs of side -1.  The
    count walks the three runs, each its own stretch of the walk between
    cuts, samples each of them inside and none of the loops, and the list
    is certified."""
    t = _tail_beside_corner(0, range(-4, 3), 8)
    edges = np.array(spectral_area(t).edges)
    assert edges[:, 2].tolist() == [0, -1, 0, -1, 0, -1]
    assert np.all(edges[0::2, 1] - edges[0::2, 0] < 2 * np.pi / 128)
    taken = _record_curve_samples(monkeypatch)
    assert _region_clusters(t) == ((), True)
    theta = np.concatenate(taken)
    for start, stop, side in edges:
        inside = np.count_nonzero((start < theta) & (theta < stop))
        assert inside > 0 if side else inside == 0


def _section_oracle(t, n=1200):
    """The eigenvalues of the n section in D at which S is singular to
    1e-8 scale (its least singular value), sorted by real then imaginary
    part: a section eigenvalue near the curve that S does not confirm is
    pollution."""
    contains, scale = region(t)
    dense = np.linalg.eigvals(t.truncate(n))
    return sorted((v for v in dense[contains(dense)]
                   if np.linalg.svd(schur_complement(t, v), compute_uv=False)[-1]
                   <= 1e-8 * scale), key=lambda v: (v.real, v.imag))


def _assert_oracle(t, count):
    """``_region_clusters`` certifies ``count`` simple eigenvalues, the
    section oracle's to 1e-7 scale."""
    found, certified = _region_clusters(t)
    oracle = _section_oracle(t)
    _, scale = region(t)
    assert certified and [k for _, k in found] == [1] * count and len(oracle) == count
    assert all(abs(v - w) <= 1e-7 * scale for (v, _), w in zip(found, oracle))


def _sides_by_winding(t):
    """The side of every edge of t's edge table as ``winding`` reads it at
    the middle of the edge, 1e-7 scale to the left and right of the curve:
    1 where the left is at winding 0, -1 where the right is, 0 where
    neither."""
    sym = symbol(t)
    g = _curve_symmetry(t.tails)[0]
    edges = np.array(spectral_area(t).edges)
    middle = (edges[:, 0] + edges[:, 1]) / 2
    lam, ahead = (sym.evaluate(np.exp(1j * (middle + h) / g)) for h in (0.0, 1e-6))
    normal = 1j * (ahead - lam) / np.abs(ahead - lam) * 1e-7 * max(1.0, sym.magnitude())
    left = np.array([winding(sym, v) for v in lam + normal])
    right = np.array([winding(sym, v) for v in lam - normal])
    return np.where(left == 0, 1, np.where(right == 0, -1, 0))


def _draw_119_with_a_corner():
    """Draw 119 of default_rng(0) (bandwidth integers(2, 7), tails
    normal(size=2w+1) + 1j normal(size=2w+1)) beside a 4 x 4 complex
    Gaussian corner from default_rng(1)."""
    rng = np.random.default_rng(0)
    for _ in range(120):
        w = int(rng.integers(2, 7))
        tails = rng.normal(size=2 * w + 1) + 1j * rng.normal(size=2 * w + 1)
    head = np.random.default_rng(1)
    return (toeplitz(dict(zip(range(-w, w + 1), tails)))
            + from_dense_corner(head.normal(size=(4, 4)) + 1j * head.normal(size=(4, 4))))


def test_a_run_of_sides_inside_one_first_step_is_read(monkeypatch):
    """Draw 119 reads side 1 between the crossings 0.585915 and 0.590952,
    inside one of the 128 first steps, and -1 on either side, as
    ``winding`` confirms.  A count that took its sides from roots at its
    samples put none there and certified by chance; the count on the edge
    table samples the run, and its certified list is the section oracle's
    (empty: the six eigenvalues of the 1200 section in D lie within
    0.0016 scale of the curve, where S is not singular)."""
    t = _draw_119_with_a_corner()
    edges = np.array(spectral_area(t).edges)
    run = int(np.argmin(np.abs(edges[:, 0] - 0.585915)))
    np.testing.assert_allclose(edges[run, :2], [0.585915, 0.590952], atol=1e-6)
    assert edges[[run - 1, run, run + 1], 2].tolist() == [-1, 1, -1]
    assert np.array_equal(_sides_by_winding(t), edges[:, 2])
    taken = _record_curve_samples(monkeypatch)
    _assert_oracle(t, 0)
    theta = np.concatenate(taken)
    assert np.any((theta > 0.585915) & (theta < 0.590952))


def test_a_flipped_side_changes_the_count_or_its_certificate(monkeypatch):
    """With the side of the longest read edge of pool base (3, 8, 2) flipped
    in its edge table, the list changes or is no longer certified."""
    t = workloads.generic_base(3, 8, 2)
    want, est = _region_clusters(t), spectral_area(t)
    assert want[1]
    j = max((j for j, e in enumerate(est.edges) if e[2]),
            key=lambda j: est.edges[j][1] - est.edges[j][0])
    start, stop, side = est.edges[j]
    flipped = dataclasses.replace(
        est, edges=est.edges[:j] + ((start, stop, -side),) + est.edges[j + 1:])
    monkeypatch.setattr(numerics, "spectral_area", lambda t: flipped)
    assert _region_clusters(t) != want


def test_touching_lobes_read_the_right_side_and_list_the_oracle():
    """z + 1/z + (i/2) z^2 touches itself at -i/2, where its two lobes merge
    into one face of winding 1.  Its one edge reads -1 (the winding-0
    outside on its right), as ``winding`` confirms at 16 points away from
    the touch; beside the 4 x 4 corner of default_rng(1) the certified list
    is the section oracle's four eigenvalues."""
    head = np.random.default_rng(1)
    t = (toeplitz({1: 1.0, -1: 1.0, 2: 0.5j})
         + from_dense_corner(head.normal(size=(4, 4)) + 1j * head.normal(size=(4, 4))))
    assert spectral_area(t).edges == ((0.0, 2 * np.pi, -1),)
    sym = symbol(t)
    theta = np.arange(16) * (2 * np.pi / 16) + 0.1          # the touch is at pi/2, 3 pi/2
    lam, ahead = (sym.evaluate(np.exp(1j * (theta + h))) for h in (0.0, 1e-6))
    normal = 1e-7j * (ahead - lam) / np.abs(ahead - lam)
    assert [winding(sym, v) for v in lam + normal] == [1] * 16
    assert [winding(sym, v) for v in lam - normal] == [0] * 16
    _assert_oracle(t, 4)


@pytest.mark.parametrize("t", _certificate_cases()[:11] + [
    _tail_beside_corner(*OTHER_TAILS[3]), _tail_beside_corner(2, range(-3, 4), 6, True)])
def test_edge_sides_are_those_winding_reads(t):
    """On the 11 pool bases and on two tails with a_-k = a_k, every edge of
    the table has the side that ``winding`` reads beside it; a tail with
    a_-k = a_k reads 1 everywhere, with its arc cut where it crosses
    itself (three times for the bandwidth-3 one, at four parameters each)."""
    sides = _sides_by_winding(t)
    assert np.array_equal(sides, np.array(spectral_area(t).edges)[:, 2])
    if _curve_symmetry(t.tails)[1] is not None:
        assert np.all(sides == 1)


def test_a_symmetric_tail_whose_arc_crosses_itself_is_certified():
    """a_-k = a_k with bandwidth 3 from seed 2: the arc, traced back and
    forth, crosses itself, and the boundary values of S jump where it does.
    The count cuts the curve there and certifies the section oracle's
    three eigenvalues."""
    t = _tail_beside_corner(2, range(-3, 4), 6, True)
    assert len(spectral_area(t).edges) > 1
    _assert_oracle(t, 3)


def test_hermitian_tail_keeps_its_box():
    """A Hermitian bandwidth-2 tail beside a Gaussian corner has a segment
    for a curve, which the count cuts out as a box: the list is the one the
    raster region gave."""
    rng = np.random.default_rng(0)
    coeffs = {k: complex(*rng.normal(size=2)) for k in range(-2, 3)}
    coeffs = {k: coeffs[k] if k > 0 else coeffs[-k].conjugate() if k else coeffs[0].real
              for k in range(-2, 3)}
    head = (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))) / np.sqrt(8)
    t = toeplitz(coeffs) + from_dense_corner(head)
    assert symbol(t).is_segment()
    found, certified = _region_clusters(t)
    assert certified and [k for _, k in found] == [1] * 4
    np.testing.assert_allclose([v for v, _ in found],
                               [-5.8924033541 - 0.1331773807j, 1.0380917324 + 1.1063166979j,
                                2.6875078788 - 0.0265494279j, 3.1102414731 + 0.5709162009j],
                               rtol=0, atol=1e-9)


def test_listed_eigenvalues_are_singular_points_of_the_schur_complement():
    for t in _certificate_cases():
        _, scale = region(t)
        found, certified = _region_clusters(t)
        assert certified
        for v, _ in found:
            smin = np.linalg.svd(schur_complement(t, v), compute_uv=False)[-1]
            assert smin <= 1e-12 * scale


def _newton_cases():
    ops = [workloads.generic_base(*key) for key in workloads.GENERIC_POOL]
    for gen in (suites.random_banded_symbol, suites.random_toeplitz_corner):
        ops += [gen(np.random.default_rng(seed)) for seed in range(25)]
    return [t for t in ops if len(t.window) and 0 not in _tail_span(t.tails)]


def test_batched_newton_gives_the_per_seed_zeros():
    """The zeros, and where Newton gives up, are those of the seed-by-seed
    iteration, to the last bit, on the seeds of both sections that
    ``schur_eigenvalues`` takes."""
    checked = 0
    for t in _newton_cases():
        p, q = _tail_span(t.tails)
        m, scale = len(t.window), max(1.0, operator_norm(t))
        for size in (m + 8 * (p + q), 4 * (m + 8 * (p + q))):
            seeds = np.linalg.eigvals(t.truncate(size))
            seeds = seeds[_wiener_hopf_block(t.tails, seeds)[1]]
            got = _schur_newton(t, _corner_coupling(t), seeds, scale)
            assert got == [schur_newton_per_seed(t, z, scale) for z in seeds]
            checked += sum(z is not None for z in got)
    assert checked > 100


def test_newton_takes_the_zero_where_the_schur_complement_is_singular():
    """A seed at an exact zero of det S stops there, seed by seed, while the
    other seeds of the batch go on."""
    t = from_dense_corner(np.diag([2.0, -1.0])) + embed_at(toeplitz({-1: 1.0, 1: 0.5}), 2)
    seeds = np.array([2.0 + 0j, 2.01 + 0.01j])
    zeros = _schur_newton(t, _corner_coupling(t), seeds, 2.5)
    assert zeros == [schur_newton_per_seed(t, z, 2.5) for z in seeds]
    assert zeros[0] == 2.0


def test_spectral_summary_batches_the_wiener_hopf_calls(monkeypatch):
    """Pool base (3, 16, 1): one ``_wiener_hopf_block`` call per Newton step
    for all seeds, not one per seed (122 calls seed by seed)."""
    calls = []
    block = numerics._wiener_hopf_block

    def counted(tails, lam):
        calls.append(lam)
        return block(tails, lam)

    monkeypatch.setattr(numerics, "_wiener_hopf_block", counted)
    spectral_summary(workloads.generic_base(3, 16, 1))
    assert 0 < len(calls) <= 36


@pytest.mark.parametrize("t", [
    toeplitz({1: 1.0, 2: 0.3}) + from_dense_corner(
        np.random.default_rng(1).normal(size=(5, 5))),
    toeplitz({-1: 0.8j}) + from_dense_corner(
        np.random.default_rng(2).normal(size=(6, 6)) * 2),
    load_bundled("diagonal_head_shift").operator,
    load_bundled("unitary_diag").operator,
    diagonal((0.5, 2.0, 1.0, 3j), 1.0),
])
def test_one_sided_and_constant_tails_give_the_window_eigenvalues(t):
    sym = symbol(t)
    clearance = 1e-6 * max(1.0, operator_norm(t))
    window = [complex(v) for v in np.linalg.eigvals(t.window)
              if at_winding_zero(sym, v) and _curve_distance(sym, v) > clearance]
    assert _region_clusters(t) == (cluster_values(window, 1e-6), True)


def _one_sided_and_constant_cases():
    """60 one-sided operators from six ``suites`` generators, every other
    one replaced by its adjoint (so p = 0 and q = 0 both occur), and
    constant symbols beside a corner, the zero symbol among them."""
    rng = np.random.default_rng(11)
    gens = (suites.random_diagonal, suites.random_weighted_shift, suites.random_hyponormal,
            suites.random_normal_corner, suites.random_an_hyponormal,
            suites.random_constant_modulus)
    ops = [gens[i % 6](rng) for i in range(60)]
    ops = [t.adjoint() if i % 2 else t for i, t in enumerate(ops)]
    return ops + [toeplitz({0: c}) + from_dense_corner(rng.normal(size=(4, 4)))
                  for c in (0.0, 1.0, 0.3 - 2j)]


def test_the_listing_rule_is_winding_zero_off_the_clearance(monkeypatch):
    """``_zero_winding_mask`` keeps exactly the values at winding 0 and
    farther than the clearance from the curve, as ``winding`` and the
    curve distance read them value by value: on the window eigenvalues and
    points around the curve of one-sided tails, their adjoints and
    constant symbols, and on the pencil values that ``_region_clusters``
    passes it for bandwidth-1 tails.  At least 100 of the one-sided values
    lie beyond the clearance and are left out for their winding."""
    rng = np.random.default_rng(3)
    left_out = 0
    for t in _one_sided_and_constant_cases():
        clearance = 1e-6 * max(1.0, operator_norm(t))
        size = 1.5 * max(1.0, symbol(t).magnitude())
        z = np.concatenate([np.linalg.eigvals(t.window),
                            rng.uniform(-size, size, (20, 2)) @ [1, 1j]])
        want = zero_winding_by_winding(t, z, clearance)
        assert np.array_equal(_zero_winding_mask(t, z, np.inf, clearance), want)
        far = np.array([_curve_distance(symbol(t), v) > clearance for v in z])
        left_out += np.count_nonzero(far & ~want)
    assert left_out >= 100
    seen, mask = [], classify_module._zero_winding_mask

    def recorded(t, z, radius, margin):
        seen.append((t, z, margin))
        return mask(t, z, radius, margin)

    monkeypatch.setattr(classify_module, "_zero_winding_mask", recorded)
    for t in _bandwidth_one_cases():
        _region_clusters(t)
    assert len(seen) == len(_bandwidth_one_cases())
    for t, z, margin in seen:
        assert np.array_equal(mask(t, z, np.inf, margin), zero_winding_by_winding(t, z, margin))


def test_the_count_walks_only_the_edges_it_reads(monkeypatch):
    """Pool base (4, 8, 1) has edges with no winding-0 face beside them
    (side 0).  The count walks only the others: no ``_boundary_block``
    sample falls on a side 0 edge, and every read edge gets one."""
    t = workloads.generic_base(4, 8, 1)
    edges = np.array(spectral_area(t).edges)
    assert np.any(edges[:, 2] == 0)
    taken = _record_curve_samples(monkeypatch)
    assert _region_clusters(t)[1]
    # the edge holding each sample; before the first start, the last edge
    edge = np.searchsorted(edges[:, 0], np.concatenate(taken), side="right") - 1
    assert np.all(edges[edge, 2] != 0)
    assert set(edge % len(edges)) == set(np.flatnonzero(edges[:, 2]))


def test_multiple_eigenvalue_is_counted_on_a_small_circle():
    jordan = (from_dense_corner([[3, 1], [0, 3]])
              + embed_at(toeplitz({-1: 1.0, 1: 0.5, 2: 0.2}), 2))
    assert _region_clusters(jordan) == (((3 + 0j, 2),), True)
    double = (from_dense_corner(np.diag([3, 3, -2j]))
              + embed_at(toeplitz({-1: 1.0, 1: 0.5, 2: 0.2}), 3))
    found, certified = _region_clusters(double)
    assert certified and [m for _, m in found] == [1, 2]
    assert np.allclose([v for v, _ in found], [-2j, 3], atol=1e-8)


def test_empty_window_has_no_eigenvalues_at_winding_zero():
    assert _region_clusters(load_bundled("selfadjoint_band").operator) == ((), True)
    assert _region_clusters(toeplitz({-1: 1.0, 1: 0.5j})) == ((), True)


def test_pollution_near_the_curve_is_not_listed():
    """Of the winding-0 eigenvalues of pool base (3, 16, 1)'s 248 section
    between 1e-3 and 2e-2 scale from the curve, only those that the 1200
    section keeps (to 2e-4 scale) are eigenvalues, and only they are listed."""
    t = workloads.generic_base(3, 16, 1)
    _, scale = region(t)
    sym = symbol(t)
    near = [v for v in np.linalg.eigvals(t.truncate(248))
            if at_winding_zero(sym, v)
            and 1e-3 * scale <= _curve_distance(sym, v) <= 2e-2 * scale]
    big = np.linalg.eigvals(t.truncate(1200))
    kept = [v for v in near if np.min(np.abs(big - v)) <= 2e-4 * scale]
    assert len(near) > len(kept) == 2
    listed = np.array([v for v, _ in _region_clusters(t)[0]])
    for v in near:
        hit = np.min(np.abs(listed - v)) <= 2e-4 * scale
        assert hit == any(v == k for k in kept)


def test_thin_curve_is_certified_and_its_area_exact():
    """The thin curve of pool base (1, 8, 1) with a z^2 term of 1e-3 failed
    the old area raster's gap test at 4096 samples.  The count on the curve
    certifies seven eigenvalues, and the arrangement of the curve gives its
    area with error 0, inside the error of the 512 raster oracle."""
    t = workloads.generic_base(1, 8, 1) + toeplitz({2: 1e-3})
    found, certified = _region_clusters(t)
    assert certified and len(found) == 7
    est, oracle = spectral_area(t), raster_regions(symbol(t), 512)
    assert est.error == 0 and abs(est.value - oracle.value) <= oracle.error


def test_the_listed_eigenvalues_do_not_depend_on_the_curve_samples():
    t = workloads.generic_base(1, 16, 0)
    coarse = spectral_summary(t, samples=256)
    fine = spectral_summary(t, samples=1024)
    assert coarse.eigenvalues_stabilized and fine.eigenvalues_stabilized
    assert coarse.eigenvalues == fine.eigenvalues == _region_clusters(t)[0]


def test_region_clusters_resolves_for_the_tracer(pool_bases):
    owner, attr = tracer._resolve(*tracer.LAYER_FUNCTIONS["numerics.region_clusters"])
    result = getattr(owner, attr)(pool_bases[0])
    assert isinstance(result[0], tuple) and isinstance(result[1], bool)


# -- the kernel count on the Gram band and the min-modulus rounding -------------

def _svd_kernel_count(t, n, rel=1e-6):
    """The numerical kernel dimension from the singular values of the tall
    section, as it was counted before the Gram band."""
    k = t.bandwidth
    tall = t.truncate(n + k)[:, :n] if k else t.truncate(n)
    s = np.linalg.svd(tall, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return n
    return int(np.count_nonzero(s <= rel * max(1.0, s[0])))


def test_tall_section_gram_is_the_gram_corner(pool_bases):
    for base in pool_bases:
        t = base - constant_diagonal(0.3 + 0.1j)
        n, k = 96, t.bandwidth
        tall = t.truncate(n + k)[:, :n]
        want = gram(t).truncate(n)
        assert np.max(np.abs(tall.conj().T @ tall - want)) <= 1e-13 * np.max(np.abs(want))


def test_kernel_count_matches_the_singular_values():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(30):
        op = suites.random_banded_symbol(rng)
        for lam in (0.0, complex(*rng.uniform(-1.5, 1.5, 2))):
            for t in (op - constant_diagonal(lam), (op - constant_diagonal(lam)).adjoint()):
                assert kernel_count_by_truncation(t, 128) == _svd_kernel_count(t, 128)
                checked += 1
    zero_op = toeplitz({})
    assert kernel_count_by_truncation(zero_op, 64) == 64 == _svd_kernel_count(zero_op, 64)
    assert checked == 120


def test_min_modulus_reads_rounding_as_zero(pool_bases):
    base = workloads.generic_base(3, 32, 1)
    turns = workloads.QUARTER_TURNS
    assert {min_modulus(workloads.unitary_copy(base, complex(r), complex(g)))
            for r in turns for g in turns} == {0.0}
    assert min_modulus(diagonal((1e-6,), 1.0)) == pytest.approx(1e-6, rel=1e-9)
    assert math.isclose(min_modulus(diagonal((0.25,), 1.0)), 0.25)


def _jordan_block_at_three():
    """[[3, 1], [0, 3]] on e0, e1 beside T(z + 0.3/z + 0.1 z^2) on the rest:
    a double zero of det S at 3, which Newton finds once and the count asks
    twice."""
    return (from_dense_corner([[3.0, 1.0], [0.0, 3.0]])
            + embed_at(toeplitz({-1: 0.3, 1: 1.0, 2: 0.1}), 2))


def _single_zero_at_three(t):
    """(multiplicity, certified) of the one zero ``_region_clusters`` lists,
    which must lie at 3."""
    found, certified = _region_clusters(t)
    (z, k), = found
    assert abs(z - 3.0) <= 1e-9
    return k, certified


def test_schur_eigenvalues_counts_a_double_zero_on_a_circle():
    assert _single_zero_at_three(_jordan_block_at_three()) == (2, True)


def test_schur_eigenvalues_uncertified_when_the_count_gives_up(monkeypatch):
    monkeypatch.setattr(numerics, "LOOP_BUDGET", 1)
    assert _single_zero_at_three(_jordan_block_at_three()) == (1, False)


def test_schur_eigenvalues_uncertified_when_the_multiplicity_is_not_counted(monkeypatch):
    # only the circle around a zero starts with 128 points all within 1e-3
    # of it: the count starts with the 128 points of the circle of radius
    # 1.05 scale, and Newton takes 3 lam per seed
    block = numerics._wiener_hopf_block

    def no_circle(tails, lam):
        g, ok = block(tails, lam)
        return g, ok & (np.size(lam) != 128 or not np.all(np.abs(np.subtract(lam, 3)) < 1e-3))

    monkeypatch.setattr(numerics, "_wiener_hopf_block", no_circle)
    assert _single_zero_at_three(_jordan_block_at_three()) == (1, False)
