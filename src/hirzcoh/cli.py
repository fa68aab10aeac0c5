"""Command-line front end: cohomology calculators and the certificate replay.

Exit codes: 0 = success / overall PASS, 1 = only a ``verify`` FAIL verdict,
2 = usage error (bad grammar, bad flags, refused requests) or an
unwritable ``--json`` path, always with an empty stdout and one ``error:``
line on stderr, 141 = stdout was closed before all output was written (a
reader such as ``head`` quit early).

Each ``_cmd_*`` returns its exit code and every line of its output and
prints nothing; ``main`` alone writes stdout, after the command has
finished, so a refusal at any step leaves stdout empty.

The command line is read from the ``_COMMANDS`` table, not by argparse,
whose import and first parser build (which loads ``gettext`` and
``locale`` and asks for the terminal size) cost each cold command about
6 ms.  An option takes the next word as its value, even one that starts
with ``-``, or is written ``--name=value``; options may come before or
after the positionals, and ``--`` ends them.  An unknown or abbreviated
option, a missing value, a repeated option and a missing or extra
positional raise ValueError, so they exit 2 like every other refusal, and
``main`` never raises SystemExit.  ``-h`` or ``--help`` prints the usage
of the command, or of ``hirzcoh``, on stdout and exits 0.

The table, with ``_OPS`` for the operations of ``split``, is the one place
that names a command, an option or an operation: each row carries its
summary and the help of each positional and option, and ``_help`` builds
every help text from it, only when one is asked for.  The refusal of an
unknown command or operation lists the names from the same tables.

Output is deterministic byte for byte for fixed flags, except the single
timestamped header line of ``verify`` (lines starting with ``#`` are meant
to be excluded from golden comparisons).  JSON reports carry no timestamp
at all.

``coh``, ``cone`` and ``split`` are mostly interpreter start and import,
so each command imports the modules it runs and no others.  At module
level this file loads only ``hirzebruch``, which is all ``cone`` needs;
``coh`` adds ``cohomology`` and its oracle kernel, ``split`` adds ``p1``,
``--char`` adds ``primes``, and only ``verify`` imports the verifier.
``verify`` checks the surface, the mode and the grid bound first, so a
refused one loads only ``hirzebruch`` and ``primes``.
``verify`` itself loads ``json`` only for a ``--json`` report or a FAIL
witness, ``pathlib`` only for a ``--json`` report, and never
``datetime``.

A cold start is short, and CPython ends it with a cyclic garbage
collection over every object that start-up and the imports left behind,
about 9 ms of each command, although the process exits straight after.
``entry``, which both ``python -m hirzcoh.cli`` and the installed
``hirzcoh`` script run, calls ``gc.freeze()`` between ``main`` and
``sys.exit`` so that collection finds nothing to walk.  ``main`` never
freezes: the tests and the benchmark call it in-process and keep a heap
that the collector still walks.
"""

from __future__ import annotations

import gc
import os
import sys

from .hirzebruch import (
    _INT_DIGITS,
    DivisorClass,
    SurfaceContext,
    format_class,
    parse_class,
    parse_int,
)

#: Exit status when stdout is closed early: 128 + SIGPIPE, which a shell
#: also reports for a writer that SIGPIPE killed.
EXIT_BROKEN_PIPE = 141


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _parse_char(text: str) -> int:
    from .primes import check_characteristic

    try:
        value = parse_int(text)
    except ValueError:
        raise ValueError(f"characteristic must be an integer, got {text!r}") from None
    return check_characteristic(value)


_CHAR_NOTE = (
    "note: --char has no effect here; line-bundle cohomology on F_e and P^1 "
    "is characteristic-independent"
)


def _cone_line(ctx: SurfaceContext, d: DivisorClass) -> str:
    line = (
        f"psef={_yesno(ctx.is_psef(d))} big={_yesno(ctx.is_big(d))} "
        f"nef={_yesno(ctx.is_nef(d))} ample={_yesno(ctx.is_ample(d))}"
    )
    if ctx.is_ample(d):
        line += " (= very ample on F_e)"
    return line


def _class_line(ctx: SurfaceContext, d: DivisorClass) -> str:
    return f"class: {format_class(d)} = (a={d.a}, b={d.b}) on F_{ctx.e}"


def _cmd_coh(klass: str, *, e: int, char: int | None) -> tuple[int, list[str]]:
    from . import cohomology

    ctx = SurfaceContext(e)
    d = parse_class(klass)
    values = [
        f"h0={cohomology.h0(ctx, d)}",
        f"h1={cohomology.h1(ctx, d)}",
        f"h2={cohomology.h2(ctx, d)}",
        f"chi={cohomology.chi_rr(ctx, d)}",
    ]
    notes = []
    try:
        values.append(f"oracle_h0={cohomology.brute_force_h0(ctx, d)}")
    except ValueError as exc:
        notes.append(f"note: oracle column skipped: {exc}")
    if char is not None:
        notes.append(_CHAR_NOTE)
    return 0, [_class_line(ctx, d), " ".join(values), _cone_line(ctx, d), *notes]


def _cmd_cone(klass: str, *, e: int) -> tuple[int, list[str]]:
    ctx = SurfaceContext(e)
    d = parse_class(klass)
    return 0, [
        _class_line(ctx, d),
        _cone_line(ctx, d),
        f"pairings: D.C={ctx.intersect(d, DivisorClass(1, 0))} "
        f"D.F={ctx.intersect(d, DivisorClass(0, 1))}",
    ]


def _parse_split_input(text: str) -> SplittingType:
    from .p1 import SplittingParseError, classify_extension, parse_splitting

    compact = "".join(text.split())
    if compact.startswith("ext(") and compact.endswith(")"):
        body = compact[4:-1].split(",")
        if len(body) != 3 or body[2] not in ("split", "nonsplit"):
            raise SplittingParseError(
                f"expected ext(sub,quot,split|nonsplit), got {text!r}"
            )
        try:
            sub, quot = parse_int(body[0]), parse_int(body[1])
        except ValueError:
            raise SplittingParseError(
                f"expected integer degrees in ext(...), got {text!r}"
            ) from None
        return classify_extension(sub, quot, body[2] == "nonsplit")
    return parse_splitting(text)


#: Each operation of ``split``: its ``SplittingType`` method and the letter
#: its help gives the value.
_OPS = {"sym": ("sym_power", "m"), "twist": ("twist", "d"), "frob": ("frobenius_pullback", "q")}


def _one_of(names) -> str:
    *rest, last = names
    return f"{', '.join(rest)} or {last}"


def _apply_op(st: SplittingType, token: str) -> SplittingType:
    name, sep, raw = token.partition(":")
    if not sep:
        raise ValueError(f"bad operation {token!r}: expected name:value")
    try:
        value = parse_int(raw)
    except ValueError:
        raise ValueError(f"bad operation value in {token!r}: expected an integer") from None
    if name not in _OPS:
        raise ValueError(f"unknown operation {name!r}: expected {_one_of(_OPS)}")
    # looked up on the instance, so a wrapper set on the class sees the call
    return getattr(st, _OPS[name][0])(value)


def _cmd_split(bundle: str, *ops: str) -> tuple[int, list[str]]:
    from .p1 import format_splitting

    st = _parse_split_input(bundle)
    for token in ops:
        st = _apply_op(st, token)
    return 0, [
        " ".join([bundle, *ops]).strip(),
        f"= {format_splitting(st)}",
        f"rank={st.rank} h0={st.h0()} h1={st.h1()}",
    ]


def render_report(report: VerificationReport, timestamp: str) -> str:
    from .verifier import H

    lines = [f"# hirzcoh verify - generated {timestamp}"]
    ctx = SurfaceContext(report.e)
    lines.append(
        f"surface F_{report.e}: C.C = {-report.e}, C.F = 1, F.F = 0; "
        f"K = {format_class(ctx.canonical_class)}; "
        f"polarization H = {format_class(H)} (ample: {_yesno(ctx.is_ample(H))})"
    )
    mode_text = f"characteristic {report.characteristic}, mode {report.mode}"
    if report.beta_max is not None:
        mode_text += f", beta_max {report.beta_max}"
    mode_text += "; region b >= 1, l >= 0"
    lines.append(mode_text)
    lines.append("")
    for rec in report.records:
        lines.append(f"{rec.claim_id:<12}{rec.status:<6}{rec.headline}")
    lines.append("")
    if report.overall == "PASS":
        lines.append(
            f"overall PASS: {report.vanishing_claim_count()} claims certified; "
            "almost-nef evidence recorded"
        )
    else:
        import json

        first = report.first_failure()
        lines.append(f"overall FAIL at {first.claim_id}; witness: {json.dumps(first.witness)}")
    lines.append(f"conclusion: {report.conclusion}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _cmd_verify(
    *, e: int, char: int, mode: str, beta_max: int | None, json_path: str | None
) -> tuple[int, list[str]]:
    import time

    from .primes import check_mode

    # a refused surface, mode or grid bound exits before the verifier loads
    ctx = SurfaceContext(e)
    check_mode(mode, beta_max)
    from .verifier import run_full_replay

    report = run_full_replay(ctx, char, mode, beta_max)
    # the file is written before main prints: a reader that quits early
    # cannot stop it from being written
    if json_path is not None:
        import json
        from pathlib import Path

        payload = json.dumps(report.to_json_dict(), indent=2) + "\n"
        try:
            Path(json_path).write_text(payload, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write JSON report: {exc}") from None
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return (0 if report.overall == "PASS" else 1), [render_report(report, stamp)]


_USAGE = """\
usage: hirzcoh [COMMAND] [OPTION ...] [ARG ...]

Exact line-bundle cohomology and positivity cones on Hirzebruch surfaces,
plus a certified replay showing the nonsplit extension of O by O(C) on F_2
is almost nef but not pseudo-effective.  Without a command, hirzcoh runs
the characteristic-0 symbolic replay, as 'hirzcoh verify' does.

commands:
{commands}

An option takes the next word as its value, or is written --name=value.
Options may come before or after the arguments; '--' ends them.
'hirzcoh COMMAND -h' shows the options of a command."""

_TWIST = ("e", parse_int, 2, "N", "Hirzebruch twist (default 2)")
_CLASS = (("CLASS", "divisor class, e.g. 'C+3F'"),)

#: Each command: its run function, its one-line summary, its options as
#: flag -> (keyword of the run function, parser, default, metavar, help),
#: its positionals as (name, help), and the (name, help) of the words that
#: may follow those, or None.  The run function takes the positionals in
#: order and every option by keyword.  The help and every name refusal are
#: built from this table.
_COMMANDS = {
    "coh": (
        _cmd_coh,
        "cohomology table for a divisor class",
        {
            "-e": _TWIST,
            "--char": (
                "char", _parse_char, None, "P", "characteristic, 0 or a prime (informational)"
            ),
        },
        _CLASS,
        None,
    ),
    "cone": (
        _cmd_cone, "positivity-cone membership for a divisor class", {"-e": _TWIST}, _CLASS, None
    ),
    "split": (
        _cmd_split,
        "splitting-type calculator on P^1",
        {},
        (("TYPE", "splitting type '[d1,d2,...]' or 'ext(sub,quot,split|nonsplit)'"),),
        ("OP", "operations {ops}, applied left to right"),
    ),
    "verify": (
        _cmd_verify,
        "run the certificate replay",
        {
            "-e": _TWIST,
            "--char": ("char", _parse_char, 0, "P", "0 or a prime (default 0)"),
            "--mode": ("mode", str, "symbolic", "M", "symbolic or sweep (default symbolic)"),
            "--beta-max": (
                "beta_max", parse_int, None, "N", "grid bound, 1 to 1000 (sweep mode only)"
            ),
            "--json": ("json_path", str, None, "PATH", "write the JSON report here"),
        },
        (),
        None,
    ),
}


def _help(name: str | None) -> tuple[int, list[str]]:
    """The usage of ``hirzcoh``, or of the command ``name``."""
    if name is None:
        rows = [f"  {command:<8} {row[1]}" for command, row in _COMMANDS.items()]
        return 0, [_USAGE.format(commands="\n".join(rows))]
    _, summary, options, needed, more = _COMMANDS[name]
    flags = [(f"{flag} {metavar}", text) for flag, (*_, metavar, text) in options.items()]
    words = [f"[{label}]" for label, _ in flags]
    if needed:
        words += ["[--]", *(label for label, _ in needed)]
    rows = [*needed]
    if more:
        ops = ", ".join(f"{op}:{letter}" for op, (_, letter) in _OPS.items())
        words.append(f"[{more[0]} ...]")
        rows.append((more[0], more[1].format(ops=ops)))
    rows += [*flags, ("-h, --help", "show this help")]
    lines = [f"  {label:<12}  {text}" for label, text in rows]
    return 0, [" ".join(["usage: hirzcoh", name, *words]), "", summary, "", *lines]


def _read_command(argv: list[str]) -> tuple[Callable, list[str], dict[str, object]]:
    """The run function of the command ``argv`` names, with its positionals and options.

    Every grammar error raises ValueError.  ``-h`` or ``--help`` yields a
    run function that returns the usage instead.
    """
    name, *rest = argv or ["verify"]
    if name in ("-h", "--help"):
        return _help, [None], {}
    if name not in _COMMANDS:
        raise ValueError(f"unknown command {name!r}: expected {_one_of(_COMMANDS)}")
    run, _, options, needed, more = _COMMANDS[name]
    kwargs = {field: default for field, _, default, *_ in options.values()}
    given, args = set(), []
    words = iter(rest)
    for word in words:
        if word == "--":
            args.extend(words)
        elif word in ("-h", "--help"):
            return _help, [name], {}
        elif word.startswith("-"):
            flag, eq, value = word.partition("=") if word.startswith("--") else (word, "", "")
            if flag not in options:
                raise ValueError(f"{name}: unknown option {flag!r}")
            if flag in given:
                raise ValueError(f"{name}: option {flag} given twice")
            if not eq:
                value = next(words, None)
                if value is None:
                    raise ValueError(f"{name}: option {flag} needs a value")
            given.add(flag)
            field, parse, *_ = options[flag]
            try:
                kwargs[field] = parse(value)
            except ValueError as exc:
                raise ValueError(f"argument {flag}: {exc}") from None
        else:
            args.append(word)
    if len(args) < len(needed):
        raise ValueError(f"{name}: missing {needed[len(args)][0]}")
    if len(args) > len(needed) and more is None:
        raise ValueError(f"{name}: unexpected argument {args[len(needed)]!r}")
    return run, args, kwargs


def main(argv: list[str] | None = None) -> int:
    # every command reads and prints integers of at most _INT_DIGITS digits,
    # whatever PYTHONINTMAXSTRDIGITS says: a lower limit would refuse inputs
    # the grammar takes, and no limit would let str() of a huge answer run
    # quadratic in its digits; the caller's limit comes back afterwards
    saved_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(_INT_DIGITS)
    try:
        run, args, kwargs = _read_command(sys.argv[1:] if argv is None else argv)
        # every line is built before any is written, so a refusal at any
        # step exits 2 with an empty stdout
        code, lines = run(*args, **kwargs)
        print("\n".join(lines))
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except ValueError as exc:  # every usage error and every grammar's parse error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # as the SIGPIPE note in the signal module docs advises: send what
        # is still buffered to devnull, so the flush at exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    finally:
        sys.set_int_max_str_digits(saved_digits)


def entry() -> NoReturn:
    """Run ``main`` as the process and exit with its code.

    Everything left on the heap is frozen first, so the collection at
    interpreter shutdown walks nothing.  Only cyclic garbage goes
    unfinalized that way, and none of it holds an open file: ``main`` has
    flushed stdout and closed the ``--json`` report before it returns.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
