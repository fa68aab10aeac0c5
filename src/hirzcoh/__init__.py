"""Exact line-bundle cohomology and positivity cones on Hirzebruch surfaces.

Every name is imported from its submodule (``from hirzcoh.p1 import
SplittingType``); the package itself exports none, so ``import hirzcoh``
loads no submodule.

Submodules
----------
hirzebruch
    Picard lattice of F_e: divisor classes, intersection form, cones.
p1
    Splitting-type calculus on P^1 and affine degree forms.
cohomology
    h^0/h^1/h^2 and the Euler characteristic as integer closed forms in the
    coefficients (e, a, b), and the lattice-point oracle.
verifier
    Certificates and the full replay of the almost-nef-not-psef extension.
primes
    The exact primality test behind ``--char``.
cli
    The ``hirzcoh`` command; each subcommand imports only the modules it
    runs (``cone`` only ``hirzebruch``), and only ``verify`` the verifier.
kernels
    The lattice-enumeration kernel behind the oracle.
"""
