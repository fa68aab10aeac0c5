"""Command-line golden outputs, exit codes, and report determinism."""

import contextlib
import gc
import io
import json
import os
import re
import resource
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirzcoh import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


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


def imported_modules(*argv, run_as=("-m", "hirzcoh.cli")):
    """Exit code and the modules a cold ``python -m hirzcoh.cli`` child imports.

    Read from ``-X importtime``, which names every module on its first
    import.  Modules that interpreter start-up (``site``) loads are left
    out: the CLI does not choose them.  ``run_as`` replaces ``-m
    hirzcoh.cli``, as ``("-c", "import hirzcoh")`` does.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *run_as, *argv],
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
    assert run(capsys, "coh", "--char", "6", "C") == (
        2,
        "",
        "error: argument --char: characteristic must be 0 or a prime, got 6\n",
    )


def test_large_prime_characteristic(capsys):
    code, out, _ = run(capsys, "verify", "--char", "1000000000000000003")
    assert code == 0
    assert "overall PASS" in out
    code, out, _ = run(capsys, "coh", "-e", "2", "--char", "1000000000000000003", "C")
    assert code == 0
    assert "characteristic-independent" in out


def test_strong_pseudoprime_characteristic_is_refused(capsys):
    # 399165290221 * 798330580441 passes Miller-Rabin on every base 2..37
    assert run(capsys, "verify", "--char", "318665857834031151167461") == (
        2,
        "",
        "error: argument --char: characteristic must be 0 or a prime, "
        "got 318665857834031151167461\n",
    )


def test_prime_just_below_primality_bound(capsys):
    code, out, _ = run(capsys, "verify", "--char", "3317044064679887385961813")
    assert code == 0
    assert "overall PASS" in out


def test_characteristic_past_primality_bound_exits_2(capsys):
    for sub in (["verify"], ["coh", "C"]):
        assert run(capsys, *sub[:1], "--char", "5000000000000000000000001", *sub[1:]) == (
            2,
            "",
            "error: argument --char: 5000000000000000000000001 is too large: "
            "primality is decided only below 3317044064679887385961981\n",
        )


def test_cone(capsys):
    code, out, _ = run(capsys, "cone", "-e", "2", "C")
    assert code == 0
    assert out == (
        "class: C = (a=1, b=0) on F_2\n"
        "psef=yes big=no nef=no ample=no\n"
        "pairings: D.C=-2 D.F=1\n"
    )


def test_cone_past_the_digit_limit_leaves_stdout_empty(capsys):
    # the class and cone lines fit; D.C = -10 * (10^4300 - 1) has 4301 digits
    code, out, err = run(capsys, "cone", "-e", "10", "--", "9" * 4300 + "C")
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and "integer string conversion" in line


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


def test_split_progression_past_enumeration_bound(capsys):
    # S^4[-2,0] is the progression -8, -6, ..., 0; its 80th power has
    # 80 * comb(84, 80) monomial terms, past the enumeration bound, and is
    # the Gaussian binomial [84 choose 4] in t^2 instead
    code, out, err = run(capsys, "split", "[-2,0]", "sym:4", "sym:80")
    assert (code, err) == (0, "")
    echo, result, numbers = out.splitlines()
    assert echo == "[-2,0] sym:4 sym:80"
    assert result.startswith("= [-640 x 1, -638 x 1, -636 x 2, ") and result.endswith(", 0 x 1]")
    assert result.count(" x ") == 321
    assert numbers.startswith(f"rank={comb(84, 4)} h0=1 h1=")


@pytest.mark.parametrize(
    "ops, pairs",
    [(("sym:99999",), 100_000), (("sym:170", "sym:170"), 170 * 170 + 1)],
    ids=["most_pairs", "most_additions"],
)
def test_split_progression_route_at_its_bound(ops, pairs):
    code, out, err = run_capped("split", "[0,1]", *ops)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].count(" x ") == pairs
    # one step further is refused before any work, with an empty stdout
    past = [f"sym:{int(op[4:]) + 1}" for op in ops]
    code, out, err = run_capped("split", "[0,1]", *past)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: symmetric power of a ") and "refusing" in line


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
    # the replay's own mode check (primes.check_mode) answers for the CLI:
    # exit 2, no stdout
    assert run(capsys, "verify", "--mode", "sweep") == (
        2,
        "",
        "error: sweep mode needs beta_max >= 1\n",
    )
    assert run(capsys, "verify", "--mode", "symbolic", "--beta-max", "5") == (
        2,
        "",
        "error: beta_max is only meaningful in sweep mode\n",
    )
    assert run(capsys, "verify", "--char", "4") == (
        2,
        "",
        "error: argument --char: characteristic must be 0 or a prime, got 4\n",
    )


# each command line with what it must give: another command line whose exit
# code and stdout it must match, its one line of stderr for a refusal (exit
# 2, empty stdout), or the start of its usage on stdout (exit 0, no stderr)
GRAMMAR = {
    "long_option_with_equals": (("coh", "--char=3", "C"), ("coh", "--char", "3", "C")),
    "option_after_positional": (("coh", "C", "-e", "3"), ("coh", "-e", "3", "C")),
    "class_after_double_dash": (("coh", "--", "-2C-4F"), ("coh", "-e", "2", "--", "-2C-4F")),
    "split_after_double_dash": (("split", "--", "[0,1]", "sym:2"), ("split", "[0,1]", "sym:2")),
    "no_command": ((), ("verify",)),
    "unknown_command": (
        ("frob",),
        "error: unknown command 'frob': expected coh, cone, split or verify",
    ),
    "option_as_command": (
        ("-e", "3"),
        "error: unknown command '-e': expected coh, cone, split or verify",
    ),
    "unknown_option": (("verify", "--beta", "5"), "error: verify: unknown option '--beta'"),
    "abbreviated_option": (("verify", "--beta=5"), "error: verify: unknown option '--beta'"),
    "option_of_another_command": (
        ("cone", "--char", "3", "C"),
        "error: cone: unknown option '--char'",
    ),
    "attached_short_value": (("coh", "-e2", "C"), "error: coh: unknown option '-e2'"),
    "short_option_with_equals": (("coh", "-e=2", "C"), "error: coh: unknown option '-e=2'"),
    "class_with_leading_minus": (("coh", "-2C-4F"), "error: coh: unknown option '-2C-4F'"),
    "missing_value": (("coh", "C", "-e"), "error: coh: option -e needs a value"),
    "repeated_option": (
        ("verify", "--char", "3", "--char=5"),
        "error: verify: option --char given twice",
    ),
    "missing_class": (("cone",), "error: cone: missing CLASS"),
    "missing_type": (("split",), "error: split: missing TYPE"),
    "extra_class": (("coh", "C", "F"), "error: coh: unexpected argument 'F'"),
    "verify_positional": (("verify", "x"), "error: verify: unexpected argument 'x'"),
    "option_after_double_dash": (
        ("cone", "--", "C", "-e", "3"),
        "error: cone: unexpected argument '-e'",
    ),
    "bad_value": (("coh", "-e", "x", "C"), "error: argument -e: expected an integer, got 'x'"),
    "value_with_leading_minus": (
        ("coh", "-e", "-1", "C"),
        "error: Hirzebruch twist must be nonnegative, got e=-1",
    ),
    "unknown_mode": (
        ("verify", "--mode", "exact"),
        "error: mode must be 'symbolic' or 'sweep', got 'exact'",
    ),
    **{
        f"{name or 'hirzcoh'}{flag}": ((*name.split(), flag), " ".join(["usage: hirzcoh", name]))
        for name in ("", "coh", "cone", "split", "verify")
        for flag in ("-h", "--help")
    },
    "help_after_options": (("coh", "-e", "3", "-h"), "usage: hirzcoh coh [-e N]"),
}


@pytest.mark.parametrize("argv, want", GRAMMAR.values(), ids=GRAMMAR)
def test_command_line_grammar(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    if isinstance(want, tuple):
        assert (code, err) == (0, "")
        assert body(out) == body(run(capsys, *want)[1])
    elif want.startswith("usage: "):
        assert (code, err) == (0, "") and out.startswith(want)
    else:
        assert (code, out, err) == (2, "", want + "\n")


# every help text, byte for byte: the help is built from the command table,
# and this pins what that table must print
HELP = {
    "hirzcoh": """\
usage: hirzcoh [COMMAND] [OPTION ...] [ARG ...]

Exact line-bundle cohomology and positivity cones on Hirzebruch surfaces,
plus a certified replay showing the nonsplit extension of O by O(C) on F_2
is almost nef but not pseudo-effective.  Without a command, hirzcoh runs
the characteristic-0 symbolic replay, as 'hirzcoh verify' does.

commands:
  coh      cohomology table for a divisor class
  cone     positivity-cone membership for a divisor class
  split    splitting-type calculator on P^1
  verify   run the certificate replay

An option takes the next word as its value, or is written --name=value.
Options may come before or after the arguments; '--' ends them.
'hirzcoh COMMAND -h' shows the options of a command.
""",
    "coh": """\
usage: hirzcoh coh [-e N] [--char P] [--] CLASS

cohomology table for a divisor class

  CLASS         divisor class, e.g. 'C+3F'
  -e N          Hirzebruch twist (default 2)
  --char P      characteristic, 0 or a prime (informational)
  -h, --help    show this help
""",
    "cone": """\
usage: hirzcoh cone [-e N] [--] CLASS

positivity-cone membership for a divisor class

  CLASS         divisor class, e.g. 'C+3F'
  -e N          Hirzebruch twist (default 2)
  -h, --help    show this help
""",
    "split": """\
usage: hirzcoh split [--] TYPE [OP ...]

splitting-type calculator on P^1

  TYPE          splitting type '[d1,d2,...]' or 'ext(sub,quot,split|nonsplit)'
  OP            operations sym:m, twist:d, frob:q, applied left to right
  -h, --help    show this help
""",
    "verify": """\
usage: hirzcoh verify [-e N] [--char P] [--mode M] [--beta-max N] [--json PATH]

run the certificate replay

  -e N          Hirzebruch twist (default 2)
  --char P      0 or a prime (default 0)
  --mode M      symbolic or sweep (default symbolic)
  --beta-max N  grid bound, 1 to 1000 (sweep mode only)
  --json PATH   write the JSON report here
  -h, --help    show this help
""",
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("name", HELP)
def test_help_text_is_pinned(capsys, name, flag):
    command = [] if name == "hirzcoh" else [name]
    assert run(capsys, *command, flag) == (0, HELP[name], "")


def test_verify_help_names_the_verifier_bounds():
    # the help stays literal so that -h never imports the verifier; this
    # keeps it in step with the verifier's own checks
    from hirzcoh.verifier import BETA_MAX_LIMIT, _check_mode

    assert f"grid bound, 1 to {BETA_MAX_LIMIT} (sweep mode only)" in HELP["verify"]
    assert "symbolic or sweep (default symbolic)" in HELP["verify"]
    _check_mode("symbolic", None)
    _check_mode("sweep", BETA_MAX_LIMIT)


# one digit past the bound every input integer keeps, Python's default
# limit on converting between int and str
PAST_DIGITS = "9" * 4301


@contextlib.contextmanager
def int_digit_limit(limit):
    """Run with ``sys.set_int_max_str_digits(limit)``, as PYTHONINTMAXSTRDIGITS sets it."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def run_under_every_limit(argv):
    """``run_in_process(argv)`` under the default digit limit, none and 640.

    Returns the first result and asserts the others equal it, and that
    ``main`` hands the caller's limit back.
    """
    results = []
    for limit in (sys.get_int_max_str_digits(), 0, 640):
        with int_digit_limit(limit):
            results.append(run_in_process(list(argv)))
            assert sys.get_int_max_str_digits() == limit
    assert results[1:] == results[:1] * 2, argv
    return results[0]


@pytest.mark.parametrize(
    "argv",
    [
        ("split", "[1_0]", "sym:1_0"),
        ("split", "[0]", "sym:1_0"),
        ("split", "ext(1_0,0,split)"),
        ("split", "[\u0663]"),
        ("coh", "-e", "1_0", "C"),
        ("cone", "-e", "\u0662", "C"),
        ("verify", "--mode", "sweep", "--beta-max", "1_0"),
        ("verify", "--char", "\u0667"),
        ("coh", "-e", "2", "\u0663C"),
        ("coh", "-e", "2", "1_0C"),
        ("coh", "-e", " 2", "C"),
        ("coh", "-e", PAST_DIGITS, "C"),
        ("verify", "--mode", "sweep", "--beta-max", PAST_DIGITS),
        ("split", f"[0,-{PAST_DIGITS}]"),
        ("split", f"ext(0,{PAST_DIGITS},nonsplit)"),
        ("cone", "--", f"C-{PAST_DIGITS}F"),
    ],
    ids=[
        "split_degree_underscore",
        "split_op_underscore",
        "split_ext_underscore",
        "split_degree_arabic_indic",
        "coh_twist_underscore",
        "cone_twist_arabic_indic",
        "verify_beta_max_underscore",
        "verify_char_arabic_indic",
        "coh_class_arabic_indic",
        "coh_class_underscore",
        "coh_twist_space",
        "coh_twist_digits",
        "verify_beta_max_digits",
        "split_degree_digits",
        "split_ext_digits",
        "cone_class_digits",
    ],
)
def test_every_integer_is_ascii_digits(argv):
    # int() alone takes underscores, other scripts' digits and whitespace,
    # and as many digits as the interpreter's limit allows, which
    # PYTHONINTMAXSTRDIGITS=0 lifts: the refusal is the same with it
    code, out, err = run_under_every_limit(argv)
    assert (code, out) == (2, "") and "string conversion" not in err
    assert_exit_contract(list(argv), code, out, err)


def test_integers_of_4300_digits_are_read_in_any_setting():
    # h1 = 10^4300 - 2 still prints; 10^4300 would not.  A limit of 640
    # digits would refuse both commands
    argv = ["split", "[-" + "9" * 4300 + "]"]
    assert run_under_every_limit(argv) == (
        0,
        f"{argv[1]}\n= {argv[1]}\nrank=1 h0=0 h1={10**4300 - 2}\n",
        "",
    )
    code, out, err = run_under_every_limit(["coh", "-e", "1" * 1000, "C"])
    assert (code, err) == (0, "") and out.startswith("class: C = (a=1, b=0) on F_111")


@pytest.mark.parametrize(
    "argv",
    [
        ["cone", "-e", "10", "--", "9" * 4300 + "C"],
        ["split", "[1]", *["frob:" + "7" * 4300] * 40],
    ],
    ids=["cone_pairing", "split_frob_chain"],
)
def test_answers_past_4300_digits_are_refused_in_any_setting(argv):
    # D.C = -10 * (10^4300 - 1) has 4301 digits, and the degree after 40
    # Frobenius pullbacks about 172 000: with no limit the first would
    # print and the second would spend about a second in str()
    code, out, err = run_under_every_limit(argv)
    assert (code, out) == (2, "")
    assert_exit_contract(argv, code, out, err)


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
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err and not path.exists()


@pytest.mark.parametrize(
    "argv", [("--json=",), ("--json", "")], ids=["equals", "separate_word"]
)
def test_empty_json_path_exits_2(capsys, argv):
    # an empty path names no file: it is refused like any other
    # unwritable path, not read as "no report"
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write JSON report: ") and len(err.splitlines()) == 1


# modules only ``verify`` needs; the calculators must start without them
VERIFY_ONLY_MODULES = {"hirzcoh.verifier", "json", "datetime"}
# modules no command needs: the value and record classes are plain classes
# or named tuples, so nothing loads dataclasses (and with it inspect), and
# the command line is read from a table, so nothing loads argparse (and with
# it gettext and locale)
NEVER_IMPORTED = {"dataclasses", "inspect", "argparse", "gettext", "locale"}


# the hirzcoh modules each calculator runs: ``-m`` runs hirzcoh.cli as
# __main__, so it is not named, and the package itself loads no submodule
COH_MODULES = {
    "hirzcoh",
    "hirzcoh.hirzebruch",
    "hirzcoh.cohomology",
    "hirzcoh.kernels",
    "hirzcoh._kernels_py",
}


@pytest.mark.parametrize(
    "argv, hirzcoh_modules",
    [
        (("coh", "-e", "2", "--", "C+3F"), COH_MODULES),
        (("coh", "--char", "7", "--", "C"), COH_MODULES | {"hirzcoh.primes"}),
        (("cone", "-e", "1", "--", "C+3F"), {"hirzcoh", "hirzcoh.hirzebruch"}),
        (("split", "[-1,2]", "sym:3"), {"hirzcoh", "hirzcoh.hirzebruch", "hirzcoh.p1"}),
    ],
    ids=["coh", "coh_char", "cone", "split"],
)
def test_calculators_cold_start_without_verifier(argv, hirzcoh_modules):
    code, modules = imported_modules(*argv)
    assert code == 0
    assert {name for name in modules if name.partition(".")[0] == "hirzcoh"} == hirzcoh_modules
    assert modules & (VERIFY_ONLY_MODULES | NEVER_IMPORTED) == set()


def test_package_import_loads_no_submodule():
    code, modules = imported_modules(run_as=("-c", "import hirzcoh"))
    assert code == 0
    assert "hirzcoh" in modules
    assert {name for name in modules if name.startswith("hirzcoh.")} == set()


def test_verify_cold_start_loads_verifier():
    code, modules = imported_modules("verify")
    assert code == 0
    assert "hirzcoh.verifier" in modules
    assert modules & NEVER_IMPORTED == set()
    # a symbolic PASS writes no JSON and prints no witness; the header's
    # stamp comes from time, not datetime
    assert modules & {"json", "datetime"} == set()


@pytest.mark.parametrize(
    "argv, want",
    [(("verify", "--mode", "exact"), 2), (("-h",), 0), (("coh", "--help"), 0)],
    ids=["usage_error", "help", "command_help"],
)
def test_usage_error_and_help_start_without_argparse(argv, want):
    code, modules = imported_modules(*argv)
    assert code == want
    assert modules & NEVER_IMPORTED == set()


# modules a replay needs and a refused ``verify`` must not load
REPLAY_MODULES = {"hirzcoh.verifier", "hirzcoh.p1", "hirzcoh.cohomology"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--mode", "exact"), "mode must be 'symbolic' or 'sweep', got 'exact'"),
        (
            ("--mode", "sweep", "--beta-max", "1001"),
            "sweep mode allows beta_max <= 1000, got 1001",
        ),
        (("--mode", "sweep"), "sweep mode needs beta_max >= 1"),
        (("--beta-max", "5"), "beta_max is only meaningful in sweep mode"),
        (("-e", "-1"), "Hirzebruch twist must be nonnegative, got e=-1"),
    ],
    ids=["mode", "beta_max_past_limit", "sweep_without_beta_max", "symbolic_beta_max", "e"],
)
def test_refused_verify_loads_no_replay_module(capsys, argv, message):
    # the surface, the mode and the grid bound are checked before the
    # verifier is imported, with the verifier's own messages
    assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n")
    code, modules = imported_modules("verify", *argv)
    assert code == 2
    assert modules & REPLAY_MODULES == set()
    assert "hirzcoh.primes" in modules


def run_closed_stdout(*argv):
    """Run the CLI in a child whose stdout is a pipe that nobody reads."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so its first write fails
    try:
        return subprocess.run(
            [sys.executable, "-m", "hirzcoh.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env=child_env(),
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--mode", "sweep", "--beta-max", "3"),
        ("split", "[0,1]", "sym:2000"),
        ("split", "[0,1]", "sym:99999"),
        ("coh", "C"),
    ],
    ids=["verify", "split", "split_sym_bound", "coh"],
)
def test_closed_stdout_is_not_a_verdict(argv):
    """A reader that quits early (``| head``) gives neither exit 1 nor a traceback."""
    proc = run_closed_stdout(*argv)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert cli.EXIT_BROKEN_PIPE not in (0, 1, 2)
    assert proc.stderr == ""


def test_json_report_written_when_stdout_is_closed(tmp_path, capsys):
    path = tmp_path / "r.json"
    proc = run_closed_stdout("verify", "--json", str(path))
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, "")
    code, _, _ = run(capsys, "verify", "--json", str(tmp_path / "ref.json"))
    assert code == 0
    assert path.read_text(encoding="utf-8") == (tmp_path / "ref.json").read_text(encoding="utf-8")


# -- the exit-status contract on inputs drawn from each command's grammar ----


def assert_exit_contract(argv, code, out, err):
    """0 or PASS, 1 only for a ``verify`` FAIL, 2 with an empty stdout and one error line."""
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert argv[0] == "verify" and "\noverall FAIL at " in out
    if code == 2:
        [line] = err.splitlines()
        assert out == "" and line.startswith("error: ") and err == line + "\n"
    else:
        assert err == ""


def run_in_process(argv):
    """Exit code, stdout and stderr of ``cli.main``; an exit from ``main`` fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# n nines, the largest n-digit number, for n from 1 to 5000 with the edges
# of Python's 4300-digit limit on printing an integer drawn more often: a
# product of two such numbers is the first to pass it
digit_counts = st.one_of(st.sampled_from([4299, 4300, 4301]), st.integers(1, 5000))
big_numbers = st.builds(lambda sign, n: sign + "9" * n, st.sampled_from(["", "-"]), digit_counts)
numbers = st.one_of(st.integers(-30, 30).map(str), big_numbers)


@st.composite
def classes(draw):
    """``[n]C±[m]F``, each term optional and in either order; a repeated term is refused."""
    text = ""
    for gen in draw(st.sampled_from(["C", "F", "CF", "FC", "", "CC"])):
        coeff = draw(st.one_of(st.just(""), numbers))
        text += ("+" if text and not coeff.startswith("-") else "") + coeff + gen
    return text


def options(**strategies):
    """Each option absent or present once with a drawn value."""
    drawn = [
        st.one_of(st.just([]), values.map(lambda v, flag=flag: [flag, v]))
        for flag, values in strategies.items()
    ]
    return st.tuples(*drawn).map(lambda parts: [word for part in parts for word in part])


characteristics = st.sampled_from(
    ["0", "2", "3", "5", "7", "4", "-3", "x", "1000000000000000003", "318665857834031151167461"]
)
twists = st.one_of(st.integers(0, 12).map(str), numbers)

coh_argv = st.tuples(options(**{"-e": twists, "--char": characteristics}), classes()).map(
    lambda t: ["coh", *t[0], "--", t[1]]
)
cone_argv = st.tuples(options(**{"-e": twists}), classes()).map(
    lambda t: ["cone", *t[0], "--", t[1]]
)

degrees = st.one_of(st.integers(-6, 6).map(str), big_numbers)
bundles = st.one_of(
    st.lists(degrees, max_size=4).map(lambda ds: "[" + ",".join(ds) + "]"),
    st.builds(
        lambda sub, quot, kind: f"ext({sub},{quot},{kind})",
        degrees,
        degrees,
        st.sampled_from(["split", "nonsplit", "other"]),
    ),
)
# symmetric powers stay small enough for each example to answer in well
# under a second, or large enough to be refused before any work
sym_exponents = st.one_of(
    st.integers(-1, 5).map(str),
    st.sampled_from(["1000", "100000", "1000000", "1" + "0" * 30]),
    big_numbers,
)
ops = st.one_of(
    sym_exponents.map("sym:".__add__),
    numbers.map("twist:".__add__),
    st.one_of(st.integers(-1, 5).map(str), numbers).map("frob:".__add__),
    st.sampled_from(["sym", "cube:3", "twist:x"]),
)
split_argv = st.tuples(bundles, st.lists(ops, max_size=3)).map(
    lambda t: ["split", "--", t[0], *t[1]]
)

replay_modes = st.one_of(
    st.just([]),
    st.just(["--mode", "symbolic"]),
    st.integers(-2, 30).map(lambda beta: ["--mode", "sweep", "--beta-max", str(beta)]),
    options(**{"--mode": st.sampled_from(["symbolic", "sweep", "exact"]), "--beta-max": numbers}),
)
verify_argv = st.tuples(options(**{"-e": twists, "--char": characteristics}), replay_modes).map(
    lambda t: ["verify", *t[0], *t[1]]
)


@settings(max_examples=600, deadline=None)
@given(st.one_of(coh_argv, cone_argv, split_argv, verify_argv))
def test_every_command_keeps_the_exit_status_contract(argv):
    assert_exit_contract(argv, *run_in_process(argv))


NINES = "9" * 4300


@pytest.mark.parametrize(
    "argv",
    [
        ("cone", "-e", "10", "--", NINES + "C"),
        ("split", "[0,1]", "sym:99999"),
        # 5 * (10^4300 - 1) has 4301 digits
        ("split", "[5]", "frob:" + NINES),
    ],
    ids=["cone_digits", "split_sym_bound", "split_frob_digits"],
)
def test_exit_contract_in_a_capped_child(argv):
    assert_exit_contract(argv, *run_capped(*argv))


# -- the process entry: main's code and output, then exit without a final collection


def console_script():
    """``-c`` code that runs the ``hirzcoh`` entry point pyproject.toml declares.

    It does what the wrapper pip installs for a console script does:
    ``sys.exit(entry())``, with the command's words in ``sys.argv[1:]``.
    """
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, func = re.search(r'^hirzcoh = "([\w.]+):(\w+)"$', text, re.M).groups()
    return f"import sys; from {module} import {func}; sys.exit({func}())"


def run_cold(argv, run_as=("-m", "hirzcoh.cli"), flags=()):
    proc = subprocess.run(
        [sys.executable, *flags, *run_as, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


ENTRY_CASES = {
    "coh": (("coh", "-e", "2", "--", "C+3F"), 0),
    "coh_char": (("coh", "--char", "7", "--", "C"), 0),
    "cone": (("cone", "-e", "1", "--", "C+3F"), 0),
    "split": (("split", "[-1,2]", "sym:3"), 0),
    "verify": (("verify",), 0),
    "verify_fail": (("verify", "-e", "3"), 1),
    "refusal": (("cone", "-e", "-1", "C"), 2),
    "usage_error": (("verify", "--mode", "exact"), 2),
    "help": (("--help",), 0),
}


ENTRIES = {"module": ("-m", "hirzcoh.cli"), "console_script": ("-c", console_script())}


@pytest.mark.parametrize("run_as", ENTRIES.values(), ids=ENTRIES)
@pytest.mark.parametrize("argv, want", ENTRY_CASES.values(), ids=ENTRY_CASES)
def test_cold_child_matches_in_process_main(argv, want, run_as):
    """``python -m hirzcoh.cli`` and the installed script exit as ``main`` returns."""
    child = run_cold(argv, run_as)
    code, out, err = run_in_process(list(argv))
    assert (code, child[0]) == (want, want)
    assert body(child[1]) == body(out) and child[2] == err
    assert_exit_contract(list(argv), *child)


def test_main_leaves_the_freeze_count_unchanged(capsys):
    """Only the process entry freezes; in-process callers keep a collectable heap."""
    before = gc.get_freeze_count()
    for argv, want in ENTRY_CASES.values():
        assert run(capsys, *argv)[0] == want
    assert gc.get_freeze_count() == before


def test_entry_freezes_the_heap_before_it_exits():
    # atexit runs before the interpreter's final collection
    report = "import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count()))"
    code, out, err = run_cold(["cone", "C"], ("-c", f"{report}; {console_script()}"))
    assert (code, err) == (0, "")
    assert int(out.splitlines()[-1]) > 0


@pytest.mark.parametrize(
    "run_as",
    [
        ("-m", "hirzcoh.cli"),
        # the same run, collected before exit: a file left open in cyclic
        # garbage, which the freeze would never finalize, warns here
        ("-c", "import gc, sys; from hirzcoh import cli; c = cli.main(); gc.collect(); sys.exit(c)"),
    ],
    ids=["entry", "collected"],
)
def test_cold_json_report_in_dev_mode_leaves_stderr_empty(tmp_path, capsys, run_as):
    """Under ``-X dev -W error`` an unclosed file or a late warning shows on stderr."""
    path = tmp_path / "r.json"
    code, out, err = run_cold(["verify", "--json", str(path)], run_as, ("-X", "dev", "-W", "error"))
    assert (code, err) == (0, "") and "\noverall PASS:" in out
    assert run(capsys, "verify", "--json", str(tmp_path / "ref.json"))[0] == 0
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()
