"""Byte-for-byte golden outputs of the verifier.

The files under ``tests/golden/`` pin the ``verify`` stdout (without the
timestamped ``#`` header) and the JSON report for every e in {1, 2, 3},
characteristic in {0, 2, 3, 5, 7} and mode (symbolic, sweep to beta 10),
plus the JSON of each falsifiability control record.  Any change to a
headline, a detail key, its order or a witness shows up here.  The
``split_*.txt`` files pin the exit code, stdout and stderr of ``split``
chains: both text forms on either side of rank 1000, each route of a
symmetric power, ``ext(...)`` leaves, padded input and three refusals.

After a deliberate output change, ``python tests/test_golden.py --write``
rewrites every file under ``tests/golden/`` from the current code; review
the diff before committing it.  Under pytest nothing is written.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hirzcoh import cli
from hirzcoh.hirzebruch import SurfaceContext
from hirzcoh.verifier import (
    base_row_certificate,
    direct_not_psef_certificate,
    frobenius_certificate,
    peeling_vanishing_certificate,
    quotient_zero_conclusion,
    split_control_datum,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

VERIFY_CASES = [
    (e, char, mode)
    for e in (1, 2, 3)
    for char in (0, 2, 3, 5, 7)
    for mode in ("symbolic", "sweep")
]

CONTROLS = (
    "split_claim3_symbolic",
    "split_claim3_sweep10",
    "split_remark_t_symbolic",
    "split_remark_t_sweep10",
    "split_charp3_symbolic",
    "split_charp3_sweep3",
    "inflated_claim4_symbolic",
    "inflated_claim4_sweep10",
    "gated_sigma_sweep10",
)


SPLIT_CASES = {
    "balanced_rank_1000": ("[-1,-1]", "sym:999"),
    "balanced_rank_1001": ("[-1,-1]", "sym:1000"),
    "balanced_sym_200": ("[-4,-4,-4,-4,-4]", "sym:200"),
    "enumerated_rank_4": ("[0,1,1,5]", "sym:3", "twist:-2"),
    "enumerated_after_frob": ("[2,-5,2,7]", "frob:3", "sym:2", "twist:4"),
    "progression_sym_12": ("[0,1]", "sym:12", "twist:-6", "frob:3"),
    "ext_nonsplit": ("ext(-1,1,nonsplit)", "sym:3"),
    "ext_split": ("ext(0,3,split)", "frob:2", "sym:2"),
    "padded_type": (" [ -3 ,\t1 ] ", "sym:4"),
    "padded_ext": ("ext( 0, 2 , nonsplit )", "twist:1"),
    "empty_type": ("[]", "sym:3"),
    "refused_bad_degree": ("[1,]",),
    "refused_ambiguous_ext": ("ext(0,4,nonsplit)",),
    "refused_enumeration": ("[0,1,2,3,4,6]", "sym:100"),
}


def split_text(name):
    """``hirzcoh split`` on the case's words: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["split", *SPLIT_CASES[name]])
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def verify_name(e, char, mode):
    return f"verify_e{e}_char{char}_{mode}"


def verify_outputs(e, char, mode, json_path):
    """Run ``hirzcoh verify``; return (exit code, stdout without '#' lines, JSON bytes)."""
    argv = ["verify", "-e", str(e), "--char", str(char), "--mode", mode]
    if mode == "sweep":
        argv += ["--beta-max", "10"]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv + ["--json", str(json_path)])
    lines = out.getvalue().splitlines(keepends=True)
    text = "".join(line for line in lines if not line.startswith("#"))
    return code, text, Path(json_path).read_bytes()


def control_record(name):
    ctx = SurfaceContext(2)
    split = split_control_datum(ctx)
    if name == "split_claim3_symbolic":
        return peeling_vanishing_certificate(ctx, split)
    if name == "split_remark_t_symbolic":
        return direct_not_psef_certificate(ctx, split)
    if name == "split_charp3_symbolic":
        return frobenius_certificate(ctx, 3, split)
    if name == "split_claim3_sweep10":
        return peeling_vanishing_certificate(ctx, split, "sweep", 10)
    if name == "split_remark_t_sweep10":
        return direct_not_psef_certificate(ctx, split, "sweep", 10)
    if name == "split_charp3_sweep3":
        return frobenius_certificate(ctx, 3, split, "sweep", 3)
    if name == "inflated_claim4_symbolic":
        return base_row_certificate(ctx, fiber_multiple=16)
    if name == "inflated_claim4_sweep10":
        return base_row_certificate(ctx, mode="sweep", beta_max=10, fiber_multiple=16)
    if name == "gated_sigma_sweep10":
        peeling = peeling_vanishing_certificate(ctx, split, "sweep", 10)
        base_row = base_row_certificate(ctx, mode="sweep", beta_max=10)
        return quotient_zero_conclusion(ctx, peeling, base_row)
    raise KeyError(name)


def control_json(name):
    return json.dumps(control_record(name).to_json_dict(), indent=2) + "\n"


@pytest.mark.parametrize("e,char,mode", VERIFY_CASES)
def test_verify_matches_golden(tmp_path, e, char, mode):
    code, text, raw = verify_outputs(e, char, mode, tmp_path / "r.json")
    name = verify_name(e, char, mode)
    assert text == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert raw == (GOLDEN / f"{name}.json").read_bytes()
    assert code == (0 if json.loads(raw)["overall"] == "PASS" else 1)


@pytest.mark.parametrize("name", CONTROLS)
def test_control_matches_golden(name):
    text = control_json(name)
    assert text == (GOLDEN / f"control_{name}.json").read_text(encoding="utf-8")
    assert json.loads(text)["status"] == "FAIL"


@pytest.mark.parametrize("name", SPLIT_CASES)
def test_split_matches_golden(name):
    assert split_text(name) == (GOLDEN / f"split_{name}.txt").read_text(encoding="utf-8")


def write_goldens():
    """Rewrite every golden file from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        for e, char, mode in VERIFY_CASES:
            _, text, raw = verify_outputs(e, char, mode, Path(tmp) / "r.json")
            name = verify_name(e, char, mode)
            (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
            (GOLDEN / f"{name}.json").write_bytes(raw)
    for name in CONTROLS:
        (GOLDEN / f"control_{name}.json").write_text(control_json(name), encoding="utf-8")
    for name in SPLIT_CASES:
        (GOLDEN / f"split_{name}.txt").write_text(split_text(name), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_goldens()
