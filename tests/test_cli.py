"""Command-line golden outputs, exit codes, and report determinism."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from hirzcoh import cli

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment of a child that imports hirzcoh from this checkout."""
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def run_capped(*argv):
    """Run the CLI in a child capped at 1 GB of address space and 60 s.

    For inputs whose cost could grow with the size of the integers: a
    regression fails the test instead of exhausting the machine.
    """

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "hirzcoh.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
        preexec_fn=cap,
    )
    return proc.returncode, proc.stdout, proc.stderr


def imported_modules(*argv):
    """Exit code and the modules a cold ``python -m hirzcoh.cli`` child imports.

    Read from ``-X importtime``, which names every module on its first
    import.  Modules that interpreter start-up (``site``) loads are left
    out: the CLI does not choose them.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hirzcoh.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    names = [
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    if "site" in names:
        names = names[names.index("site") + 1 :]
    return proc.returncode, set(names)


def body(out):
    """Output without the timestamped '#' header lines."""
    return "\n".join(line for line in out.splitlines() if not line.startswith("#"))


def test_coh_section_class(capsys):
    code, out, _ = run(capsys, "coh", "-e", "2", "C")
    assert code == 0
    assert out == (
        "class: C = (a=1, b=0) on F_2\n"
        "h0=1 h1=1 h2=0 chi=0 oracle_h0=1\n"
        "psef=yes big=no nef=no ample=no\n"
    )


def test_coh_trivial_class(capsys):
    code, out, _ = run(capsys, "coh", "-e", "2", "0C+0F")
    assert code == 0
    assert "h0=1 h1=0 h2=0 chi=1 oracle_h0=1" in out


def test_coh_polarization(capsys):
    code, out, _ = run(capsys, "coh", "-e", "2", "C+3F")
    assert code == 0
    assert "h0=6 h1=0 h2=0 chi=6 oracle_h0=6" in out
    assert "ample=yes (= very ample on F_e)" in out


def test_coh_class_with_leading_minus_after_double_dash(capsys):
    code, out, _ = run(capsys, "coh", "-e", "2", "--", "-2C-4F")
    assert code == 0
    assert "h0=0 h1=0 h2=1 chi=1 oracle_h0=0" in out


def test_coh_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "coh", "-e", "2", "C+F+F")
    assert code == 2
    assert "repeated F term" in err and out == ""


def test_coh_oracle_bound_skips_column(capsys):
    code, out, _ = run(capsys, "coh", "-e", "2", "10001C")
    assert code == 0
    lines = out.splitlines()
    assert "oracle_h0" not in lines[1]
    assert lines[1].startswith("h0=") and "chi=" in lines[1]
    assert any("oracle column skipped" in line for line in lines)


def test_coh_huge_class_is_exact():
    code, out, err = run_capped("coh", "-e", "2", "1000000000000000000C+1000000000000000000F")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1] == (
        "h0=250000000000000001000000000000000001 h1=250000000000000000000000000000000000 "
        "h2=0 chi=1000000000000000001"
    )
    assert lines[-1].startswith("note: oracle column skipped: brute-force enumeration is limited")


def test_coh_class_past_digit_limit_exits_2():
    n = "1" + "0" * 2499
    code, out, err = run_capped("coh", "-e", "2", f"{n}C+{n}F")
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("error: ") and "integer string conversion" in line


def test_coh_char_note(capsys):
    code, out, _ = run(capsys, "coh", "-e", "2", "--char", "7", "C")
    assert code == 0
    assert "characteristic-independent" in out


def test_coh_rejects_composite_char(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["coh", "--char", "6", "C"])
    assert exc.value.code == 2


def test_large_prime_characteristic(capsys):
    code, out, _ = run(capsys, "verify", "--char", "1000000000000000003")
    assert code == 0
    assert "overall PASS" in out
    code, out, _ = run(capsys, "coh", "-e", "2", "--char", "1000000000000000003", "C")
    assert code == 0
    assert "characteristic-independent" in out


def test_strong_pseudoprime_characteristic_is_refused(capsys):
    # 399165290221 * 798330580441 passes Miller-Rabin on every base 2..37
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--char", "318665857834031151167461"])
    assert exc.value.code == 2


def test_prime_just_below_primality_bound(capsys):
    code, out, _ = run(capsys, "verify", "--char", "3317044064679887385961813")
    assert code == 0
    assert "overall PASS" in out


def test_characteristic_past_primality_bound_exits_2(capsys):
    for sub in (["verify"], ["coh", "C"]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*sub[:1], "--char", "5000000000000000000000001", *sub[1:]])
        assert exc.value.code == 2
        assert "too large" in capsys.readouterr().err


def test_cone(capsys):
    code, out, _ = run(capsys, "cone", "-e", "2", "C")
    assert code == 0
    assert out == (
        "class: C = (a=1, b=0) on F_2\n"
        "psef=yes big=no nef=no ample=no\n"
        "pairings: D.C=-2 D.F=1\n"
    )


def test_split_sym(capsys):
    code, out, _ = run(capsys, "split", "[-1,-1]", "sym:4")
    assert code == 0
    assert out == ("[-1,-1] sym:4\n= [-4,-4,-4,-4,-4]\nrank=5 h0=0 h1=15\n")


def test_split_weighted_sym(capsys):
    code, out, _ = run(capsys, "split", "[0,1]", "sym:2")
    assert code == 0
    assert "= [0,1,2]" in out


def test_split_chain(capsys):
    code, out, _ = run(capsys, "split", "[-1,-1]", "frob:4", "sym:4", "twist:15")
    assert code == 0
    assert "= [-1,-1,-1,-1,-1]" in out
    assert "rank=5 h0=0 h1=0" in out


def test_split_extension_input(capsys):
    code, out, _ = run(capsys, "split", "ext(-2,0,nonsplit)")
    assert code == 0
    assert "= [-1,-1]" in out
    code, out, _ = run(capsys, "split", "ext(-2,0,split)")
    assert code == 0
    assert "= [-2,0]" in out


def test_split_ambiguous_extension_surfaces_error(capsys):
    code, out, err = run(capsys, "split", "ext(-5,0,nonsplit)")
    assert code == 2
    assert "ambiguous splitting type" in err


def test_split_balanced_sym_past_rank_budget_exits_2():
    # comb(2*10^6, 10^6) alone takes half a minute; the rank is refused first
    code, out, err = run_capped("split", "[0,0]", "sym:1000000", "sym:1000000")
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: symmetric power may have more than 2^100000 summands")


def test_split_prints_nothing_when_the_result_cannot_be_formatted():
    # the echo line alone is 4419 bytes; the twisted degree has 4401 digits
    twist, frob = "twist:1" + "0" * 4200, "frob:1" + "0" * 200
    code, out, err = run_capped("split", "[1]", twist, frob)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and "integer string conversion" in line


def test_split_bad_op(capsys):
    code, _, err = run(capsys, "split", "[0]", "cube:3")
    assert code == 2
    assert "unknown operation" in err
    code, _, err = run(capsys, "split", "[0]", "sym")
    assert code == 2


def test_verify_char0_symbolic(capsys):
    code, out, _ = run(capsys, "verify", "--char", "0", "--mode", "symbolic")
    assert code == 0
    text = body(out)
    assert "overall PASS: 4 claims certified" in text
    assert "conclusion: not pseudo-effective" in text
    for claim in ("claim3", "claim4", "sigma", "remark_t", "almost_nef"):
        assert claim in text
    assert out.splitlines()[0].startswith("# hirzcoh verify")


def test_verify_char2_reports_boundary(capsys):
    code, out, _ = run(capsys, "verify", "--char", "2", "--mode", "symbolic")
    assert code == 0
    assert "boundary 15 - 4q = -1" in out
    assert "2 claims certified" in out


def test_verify_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--char", "0", "--mode", "sweep", "--beta-max", "10")
    assert code == 0
    assert "finite evidence" in out


def test_verify_sweep_past_beta_max_limit_exits_2():
    # a sweep to 10^6 would run for hours; the bound is refused before any work
    code, out, err = run_capped("verify", "--mode", "sweep", "--beta-max", "1000000")
    assert (code, out) == (2, "")
    assert err == "error: sweep mode allows beta_max <= 1000, got 1000000\n"


def test_verify_failure_exits_1(capsys):
    code, out, _ = run(capsys, "verify", "-e", "1", "--char", "0", "--mode", "symbolic")
    assert code == 1
    assert "overall FAIL at extension" in out
    assert "conclusion: not certified" in out


def test_verify_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--mode", "sweep"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--mode", "symbolic", "--beta-max", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--char", "4"])
    assert exc.value.code == 2


def test_default_invocation_is_char0_replay(capsys):
    code, out, _ = run(capsys)
    assert code == 0
    assert "characteristic 0, mode symbolic" in out
    assert "conclusion: not pseudo-effective" in out
    _, verify_out, _ = run(capsys, "verify")
    assert body(out) == body(verify_out)


def test_verify_output_deterministic_modulo_header(capsys):
    _, out1, _ = run(capsys, "verify", "--char", "0", "--mode", "symbolic")
    _, out2, _ = run(capsys, "verify", "--char", "0", "--mode", "symbolic")
    assert body(out1) == body(out2)


def test_json_report(tmp_path, capsys):
    path1 = tmp_path / "r1.json"
    path2 = tmp_path / "r2.json"
    code, _, _ = run(capsys, "verify", "--char", "0", "--mode", "symbolic", "--json", str(path1))
    assert code == 0
    run(capsys, "verify", "--char", "0", "--mode", "symbolic", "--json", str(path2))
    raw1, raw2 = path1.read_bytes(), path2.read_bytes()
    assert raw1 == raw2  # byte-for-byte deterministic, no timestamp
    report = json.loads(raw1)
    assert report["schema"] == 1
    assert list(report["claims"]) == ["claim3", "claim4", "sigma", "remark_t", "almost_nef"]
    assert report["overall"] == "PASS"
    assert report["conclusion"] == "not pseudo-effective"
    assert report["claims"]["claim3"]["degree_form"]["text"] == "0 - 1*b - 2*l"


def test_json_report_charp(tmp_path, capsys):
    path = tmp_path / "p.json"
    code, _, _ = run(capsys, "verify", "--char", "5", "--mode", "symbolic", "--json", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    assert list(report["claims"]) == ["charp", "remark_t", "almost_nef"]
    assert report["claims"]["charp"]["details"]["boundary_value"] == -5
    assert report["notes"]


def test_negative_twist_is_usage_error(capsys):
    code, _, err = run(capsys, "coh", "-e", "-1", "C")
    assert code == 2
    assert "nonnegative" in err


def test_json_report_into_missing_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "verify", "--json", str(path))
    assert code == 2
    assert "overall PASS" in out
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err and not path.exists()


# modules only ``verify`` needs; the calculators must start without them
VERIFY_ONLY_MODULES = {"hirzcoh.verifier", "dataclasses", "json", "datetime"}


@pytest.mark.parametrize(
    "argv",
    [
        ("coh", "-e", "2", "--", "C+3F"),
        ("coh", "--char", "7", "--", "C"),
        ("cone", "-e", "1", "--", "C+3F"),
        ("split", "[-1,2]", "sym:3"),
    ],
    ids=["coh", "coh_char", "cone", "split"],
)
def test_calculators_cold_start_without_verifier(argv):
    code, modules = imported_modules(*argv)
    assert code == 0
    assert "hirzcoh.cohomology" in modules
    assert modules & VERIFY_ONLY_MODULES == set()


def test_verify_cold_start_loads_verifier():
    code, modules = imported_modules("verify")
    assert code == 0
    assert "hirzcoh.verifier" in modules
