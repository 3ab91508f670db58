"""The Gaussian density's certified order: BLAS distance tiles under a proven
error bound, with the exact sum only for the rows the bound cannot separate,
must give exactly the stable order of the dense density's bits.

Run these under ``OPENBLAS_NUM_THREADS=1`` too, as the benchmark runs the
pipeline: the BLAS thread count changes the summation order of each product.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from quickmatch import centralized
from quickmatch.centralized import (
    SIGMA_FLOOR,
    _density_intervals,
    density_order,
    density_values,
    resolve_sigma,
    sigma_per_image,
)
from quickmatch.core import FeatureSet
from quickmatch.kernels import Kernel
from quickmatch.synthetic import SynthConfig, generate_synthetic
from test_golden import _lone


def _sigma(fs: FeatureSet) -> np.ndarray:
    return resolve_sigma(sigma_per_image(fs.vectors, fs.image_slots, fs.image_count), fs.vectors)


def _dense_order(fs: FeatureSet, sigma: np.ndarray) -> np.ndarray:
    return np.argsort(density_values(fs.vectors, fs.image_slots, sigma, Kernel.GAUSSIAN), kind="stable")


def _assert_orders_match(fs: FeatureSet) -> None:
    """The certified order equals the dense one with the default tiles and with
    3 x 3 tiles (whose column blocks give other dense bits), on one to three
    workers."""
    sigma = _sigma(fs)
    for block in (centralized._BLOCK, 3):
        with mock.patch.object(centralized, "_BLOCK", block):
            want = _dense_order(fs, sigma)
            for workers in (1, 2, 3):
                with mock.patch.object(centralized, "_WORKERS", workers):
                    got, _ = density_order(fs.vectors, fs.image_slots, sigma, Kernel.GAUSSIAN)
                np.testing.assert_array_equal(got, want, err_msg=f"block={block} workers={workers}")


@st.composite
def _feature_sets(draw) -> FeatureSet:
    """A small feature set, sometimes with some rows repeated in an image of
    their own (duplicate vectors, exactly tied densities), sometimes with
    every row in one image."""
    fs = draw(oracles.small_feature_sets())
    vectors, ids = fs.vectors, fs.id_array.tolist()
    if draw(st.booleans()):
        picks = draw(st.lists(st.integers(0, len(fs) - 1), min_size=1, max_size=len(fs)))
        vectors = np.vstack([vectors, vectors[picks]])
        ids += [[99, k] for k in range(len(picks))]
    if draw(st.booleans()):
        ids = [[0, k] for k in range(len(vectors))]
    return FeatureSet(vectors, ids)


@settings(max_examples=150, database=None, deadline=None, derandomize=True)
@given(_feature_sets())
def test_certified_order_is_the_dense_stable_order(fs):
    _assert_orders_match(fs)


def _lattice() -> FeatureSet:
    """A 6 x 6 integer grid over two images: symmetric rows tie exactly."""
    xs, ys = np.meshgrid(np.arange(6.0), np.arange(6.0))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    return FeatureSet(pts, [(r % 2, r) for r in range(len(pts))])


def _lattice_and_scatter() -> FeatureSet:
    """The lattice beside 60 scattered points: the lattice's near-ties are
    under half of the rows, so they take the exact sums, not the fallback."""
    rng = np.random.default_rng(7)
    lattice = _lattice()
    pts = np.vstack([lattice.vectors, rng.uniform(20.0, 40.0, (60, 2))])
    return FeatureSet(pts, [(r % 2, r) for r in range(len(pts))])


def _ring() -> FeatureSet:
    """24 points evenly on a circle, alternating between two images: every
    density is the same sum up to its last bits."""
    angle = np.arange(24) * (2 * math.pi / 24)
    return FeatureSet(np.column_stack([np.cos(angle), np.sin(angle)]), [(r % 2, r) for r in range(24)])


def _clustered(dim: int) -> FeatureSet:
    fs, _ = generate_synthetic(SynthConfig(40, 6, dim, 0.25, 3, 20.0 * 6))
    return fs


def _far_from_origin() -> FeatureSet:
    """Coordinates near 1000, bandwidths near 0.4: the BLAS distances lose
    about seven digits to cancellation, so the bound is wide (about 1e-7 of
    each density) and must still hold."""
    rng = np.random.default_rng(5)
    return FeatureSet(1000.0 + rng.uniform(0, 1, (120, 8)), [(r % 4, r) for r in range(120)])


def _huge() -> FeatureSet:
    """Coordinates near 9e149, bandwidths near 4e134: s_j |x|^2 near 6e30,
    so the bound does not hold, and nothing may overflow."""
    rng = np.random.default_rng(6)
    return FeatureSet(9e149 + rng.uniform(0, 1e136, (40, 2)), [(r % 3, r) for r in range(40)])


SHAPES = {
    "lone": _lone,
    "lattice": _lattice,
    "lattice-and-scatter": _lattice_and_scatter,
    "ring": _ring,
    "clustered-2d": lambda: _clustered(2),
    "clustered-128d": lambda: _clustered(128),
    "far-from-origin": _far_from_origin,
    "huge": _huge,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_certified_order_on_fixed_shapes(shape):
    _assert_orders_match(SHAPES[shape]())


def _exactly_summed_rows(fs: FeatureSet, sigma: np.ndarray, monkeypatch) -> tuple[np.ndarray, list[int]]:
    """The certified order and the rows it summed exactly, with the dense
    fallback made to fail; each exactly summed row calls cdist once per
    column block."""
    calls: list[int] = []
    real_cdist = centralized.cdist

    def counting(xa, xb, **kwargs):
        calls.append(len(xa))
        return real_cdist(xa, xb, **kwargs)

    def no_fallback(*args):
        raise AssertionError("density_values called")

    monkeypatch.setattr(centralized, "cdist", counting)
    monkeypatch.setattr(centralized, "density_values", no_fallback)
    order, _ = density_order(fs.vectors, fs.image_slots, sigma, Kernel.GAUSSIAN)
    return order, calls


def test_only_rows_the_bound_cannot_separate_are_summed_exactly(monkeypatch):
    """310 features, ten of them repeated in an image of their own: the
    twenty rows in tied pairs get their exact sums, every other row keeps
    its approximate one, and the order is the dense one."""
    rng = np.random.default_rng(4)
    base = rng.normal(0.0, 1.0, (300, 8))
    vectors = np.vstack([base, base[::30]])
    fs = FeatureSet(vectors, [(r % 5, r) for r in range(300)] + [(9, k) for k in range(10)])
    sigma = _sigma(fs)
    want = _dense_order(fs, sigma)
    monkeypatch.setattr(centralized, "_BLOCK", 64)  # five column blocks per exact row
    order, calls = _exactly_summed_rows(fs, sigma, monkeypatch)
    np.testing.assert_array_equal(order, want)
    assert calls == [20] * 5


def test_every_row_flagged_falls_back_to_the_dense_density(monkeypatch):
    """On the ring every interval overlaps the next, so summing the flagged
    rows exactly would cost more than the dense density: it runs instead."""
    fs = _ring()
    sigma = _sigma(fs)
    approx, width = _density_intervals(fs.vectors, sigma[fs.image_slots])
    lo, hi = np.sort(approx - width), np.sort(approx + width)
    assert (lo[1:] <= hi[:-1]).all()
    with pytest.raises(AssertionError, match="density_values called"):
        _exactly_summed_rows(fs, sigma, monkeypatch)
    monkeypatch.undo()
    _assert_orders_match(fs)


def test_no_bound_at_the_sigma_floor_or_for_huge_coordinates():
    floor = FeatureSet(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert (_sigma(floor) == SIGMA_FLOOR).all()
    for fs in (floor, _huge()):
        assert _density_intervals(fs.vectors, _sigma(fs)[fs.image_slots]) is None


@pytest.mark.parametrize("shape", ["far-from-origin", "clustered-2d", "lone", "lattice"])
def test_intervals_hold_the_dense_bits_and_the_real_sums(shape):
    """Each interval holds the dense density's bits and the real sum, and its
    half-width is the docstring's bound, term by term."""
    fs = SHAPES[shape]()
    sig_cols = _sigma(fs)[fs.image_slots]
    approx, width = _density_intervals(fs.vectors, sig_cols)
    dense = density_values(fs.vectors, fs.image_slots, _sigma(fs), Kernel.GAUSSIAN)
    real = np.array(oracles.gaussian_density_sums(fs.vectors, sig_cols))
    assert (np.abs(dense - approx) <= width).all()
    assert (np.abs(real - approx) <= width).all()
    np.testing.assert_allclose(width, oracles.certified_half_widths(fs.vectors, sig_cols, approx), rtol=1e-3)


def test_numpy_exp_is_within_the_assumed_ulps():
    """The bound assumes np.exp is within _EXP_ERR (relative) on [-Z - 1, 0],
    the exponents of every term it bounds relatively. math.exp is within one
    ulp, 2**-52 relative, so np.exp must be within _EXP_ERR - 2**-52 of it."""
    rng = np.random.default_rng(0)
    z = np.concatenate([
        np.linspace(-centralized._Z - 1, 0.0, 200_001),
        -rng.uniform(0.0, centralized._Z + 1, 200_000),
        -rng.uniform(0.0, 1e-6, 10_000),
    ])
    got = np.exp(z)
    want = np.array([math.exp(x) for x in z.tolist()])
    assert (want >= np.finfo(float).tiny).all()
    assert (np.abs(got - want) <= (centralized._EXP_ERR - 2.0**-52) * want).all()
