"""The rules for the replay's parameters, and the primality test behind one.

Deterministic Miller-Rabin: exact below a fixed bound, a refusal past it.
``check_characteristic`` is the one rule for a characteristic and
``check_mode`` the one rule for a mode and its grid bound.  The command
line and the verifier both apply them, and the command line does so
before it imports the verifier, so a refused replay loads nothing else.
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


#: Largest sweep grid bound; a larger one is refused.  Each b builds
#: S^{4b} of the tower's base: cheap for the replay's balanced bases, but
#: for an unbalanced base (a control's) a sweep to this bound already takes
#: seconds, and its cost grows faster than quadratically in the bound.
BETA_MAX_LIMIT = 1000


def check_mode(mode: str, beta_max: int | None) -> None:
    """Refuse a replay mode other than symbolic or sweep, or a bad grid bound."""
    if mode not in ("symbolic", "sweep"):
        raise ValueError(f"mode must be 'symbolic' or 'sweep', got {mode!r}")
    if mode == "sweep" and (beta_max is None or beta_max < 1):
        raise ValueError("sweep mode needs beta_max >= 1")
    if mode == "sweep" and beta_max > BETA_MAX_LIMIT:
        raise ValueError(f"sweep mode allows beta_max <= {BETA_MAX_LIMIT}, got {beta_max}")
    if mode == "symbolic" and beta_max is not None:
        raise ValueError("beta_max is only meaningful in sweep mode")
