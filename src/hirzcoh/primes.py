"""Exact primality test for the ``--char`` characteristic.

Deterministic Miller-Rabin: exact below a fixed bound, a refusal past it.
``check_characteristic`` is the one rule for a characteristic, which the
command line and the verifier both apply.
"""

# Miller-Rabin on the first thirteen prime bases decides primality exactly
# for every n below this bound, psi_13, which is itself the least strong
# pseudoprime to all thirteen (Sorenson and Webster, 2015).  Without base 41
# the bound would be psi_12 = 318_665_857_834_031_151_167_461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality test; n past the deterministic bound is refused."""
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large: primality is decided only below {_MR_BOUND}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_characteristic(p: int) -> int:
    """``p`` if it is 0 or a prime; any other value raises ValueError."""
    # is_prime refuses a value past its deterministic bound with ValueError
    if p != 0 and not is_prime(p):
        raise ValueError(f"characteristic must be 0 or a prime, got {p}")
    return p
