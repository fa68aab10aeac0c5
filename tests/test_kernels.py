"""The lattice-point kernel behind the oracle."""

import random

from hirzcoh import _kernels_py, kernels
from hirzcoh.cohomology import brute_force_h0
from hirzcoh.hirzebruch import DivisorClass, SurfaceContext


def _rows(a, b, e):
    # row sums of the polygon, a second count to compare the point walk with
    return sum(max(b - e * v + 1, 0) for v in range(max(a + 1, 0)))


def test_backend_name_is_consistent():
    assert kernels.BACKEND == "python"
    assert kernels.lattice_point_count is _kernels_py.lattice_point_count


def test_kernels_agree_on_grid():
    count = kernels.lattice_point_count
    assert count(-1, 100, 2) == 0  # empty strip
    assert count(0, 0, 2) == 1  # single point
    assert count(1, 0, 2) == 1  # second row empty (width -2)
    assert count(1, 3, 2) == 6
    assert count(2, 0, 2) == 1
    for a in range(-3, 13):
        for b in range(-12, 13):
            for e in range(4):
                assert count(a, b, e) == _rows(a, b, e)


def test_kernels_agree_on_random_larger_inputs():
    rng = random.Random(424242)
    for _ in range(25):
        a = rng.randint(0, 400)
        b = rng.randint(-400, 400)
        e = rng.randrange(0, 4)
        assert kernels.lattice_point_count(a, b, e) == _rows(a, b, e)


def test_oracle_uses_selected_backend():
    ctx = SurfaceContext(2)
    d = DivisorClass(37, 91)
    assert brute_force_h0(ctx, d) == _kernels_py.lattice_point_count(37, 91, 2)


def test_oracle_survives_huge_twist():
    # the point walk uses unbounded integers, so any twist e is exact
    ctx = SurfaceContext(10**19)
    assert brute_force_h0(ctx, DivisorClass(3, 7)) == 8  # only the v = 0 row counts
