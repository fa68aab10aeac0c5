"""Pure-Python lattice kernel behind the lattice-point oracle.

Deliberately formula-free: the count walks every lattice point of the
polygon one at a time, so it shares nothing with the closed-form row sum
of ``cohomology.h0`` beyond the polygon itself.
"""


def lattice_point_count(a: int, b: int, e: int) -> int:
    """Count {(u, v) in Z^2 : 0 <= v <= a, 0 <= u <= b - e*v} point by point."""
    n = 0
    for v in range(a + 1):
        top = b - e * v
        for _u in range(top + 1):
            n += 1
    return n
