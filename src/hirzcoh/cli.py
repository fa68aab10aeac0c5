"""Command-line front end: cohomology calculators and the certificate replay.

Exit codes: 0 = success / overall PASS, 1 = only a ``verify`` FAIL verdict,
2 = usage error (bad grammar, bad flags, refused requests) or an
unwritable ``--json`` path, always with an empty stdout and one ``error:``
line on stderr, 141 = stdout was closed before all output was written (a
reader such as ``head`` quit early).

Each ``_cmd_*`` returns its exit code and every line of its output and
prints nothing; ``main`` alone writes stdout, after the command has
finished, so a refusal at any step leaves stdout empty.

Output is deterministic byte for byte for fixed flags, except the single
timestamped header line of ``verify`` (lines starting with ``#`` are meant
to be excluded from golden comparisons).  JSON reports carry no timestamp
at all.

``coh``, ``cone`` and ``split`` are mostly interpreter start and import,
so each command imports the modules it runs and no others.  At module
level this file loads only ``hirzebruch``, which is all ``cone`` needs;
``coh`` adds ``cohomology`` and its oracle kernel, ``split`` adds ``p1``,
``--char`` adds ``primes``, and only ``verify`` imports the verifier.
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

import argparse
import gc
import os
import sys

from .hirzebruch import DivisorClass, SurfaceContext, format_class, parse_class, parse_int

#: Exit status when stdout is closed early: 128 + SIGPIPE, which a shell
#: also reports for a writer that SIGPIPE killed.
EXIT_BROKEN_PIPE = 141


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _int_type(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _char_type(text: str) -> int:
    from .primes import is_prime

    try:
        value = parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"characteristic must be an integer, got {text!r}")
    try:
        prime = value == 0 or is_prime(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not prime:
        raise argparse.ArgumentTypeError(f"characteristic must be 0 or a prime, got {value}")
    return value


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


def _cmd_coh(args: argparse.Namespace) -> tuple[int, list[str]]:
    from . import cohomology

    ctx = SurfaceContext(args.e)
    d = parse_class(args.klass)
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
    if args.char is not None:
        notes.append(_CHAR_NOTE)
    return 0, [_class_line(ctx, d), " ".join(values), _cone_line(ctx, d), *notes]


def _cmd_cone(args: argparse.Namespace) -> tuple[int, list[str]]:
    ctx = SurfaceContext(args.e)
    d = parse_class(args.klass)
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


def _apply_op(st: SplittingType, token: str) -> SplittingType:
    name, sep, raw = token.partition(":")
    if not sep:
        raise ValueError(f"bad operation {token!r}: expected name:value")
    try:
        value = parse_int(raw)
    except ValueError:
        raise ValueError(f"bad operation value in {token!r}: expected an integer") from None
    if name == "sym":
        return st.sym_power(value)
    if name == "twist":
        return st.twist(value)
    if name == "frob":
        return st.frobenius_pullback(value)
    raise ValueError(f"unknown operation {name!r}: expected sym, twist or frob")


def _cmd_split(args: argparse.Namespace) -> tuple[int, list[str]]:
    from .p1 import format_splitting

    st = _parse_split_input(args.bundle)
    for token in args.ops:
        st = _apply_op(st, token)
    return 0, [
        " ".join([args.bundle, *args.ops]).strip(),
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


def _cmd_verify(args: argparse.Namespace) -> tuple[int, list[str]]:
    import time

    from .verifier import run_full_replay

    ctx = SurfaceContext(args.e)
    report = run_full_replay(ctx, args.char, args.mode, args.beta_max)
    # the file is written before main prints: a reader that quits early
    # cannot stop it from being written
    if args.json:
        import json
        from pathlib import Path

        payload = json.dumps(report.to_json_dict(), indent=2) + "\n"
        try:
            Path(args.json).write_text(payload, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write JSON report: {exc}") from None
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return (0 if report.overall == "PASS" else 1), [render_report(report, stamp)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hirzcoh",
        description=(
            "Exact line-bundle cohomology and positivity cones on Hirzebruch "
            "surfaces, plus a certified replay showing the nonsplit extension "
            "of O by O(C) on F_2 is almost nef but not pseudo-effective. "
            "Run without a subcommand for the characteristic-0 symbolic replay."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    coh = sub.add_parser("coh", help="cohomology table for a divisor class")
    coh.add_argument("-e", type=_int_type, default=2, help="Hirzebruch twist (default 2)")
    coh.add_argument("--char", type=_char_type, default=None, help="characteristic (informational)")
    coh.add_argument("klass", metavar="CLASS", help="divisor class, e.g. 'C+3F'")
    coh.set_defaults(run=_cmd_coh)

    cone = sub.add_parser("cone", help="positivity-cone membership for a divisor class")
    cone.add_argument("-e", type=_int_type, default=2, help="Hirzebruch twist (default 2)")
    cone.add_argument("klass", metavar="CLASS", help="divisor class, e.g. 'C+3F'")
    cone.set_defaults(run=_cmd_cone)

    split = sub.add_parser("split", help="splitting-type calculator on P^1")
    split.add_argument(
        "bundle",
        metavar="TYPE",
        help="splitting type '[d1,d2,...]' or 'ext(sub,quot,split|nonsplit)'",
    )
    split.add_argument(
        "ops",
        nargs="*",
        metavar="OP",
        help="operations sym:m, twist:d, frob:q, applied left to right",
    )
    split.set_defaults(run=_cmd_split)

    verify = sub.add_parser("verify", help="run the certificate replay")
    verify.add_argument("-e", type=_int_type, default=2, help="Hirzebruch twist (default 2)")
    verify.add_argument("--char", type=_char_type, default=0, help="0 or a prime (default 0)")
    verify.add_argument("--mode", choices=("symbolic", "sweep"), default="symbolic")
    verify.add_argument(
        "--beta-max", type=_int_type, default=None, help="grid bound (sweep mode only)"
    )
    verify.add_argument("--json", metavar="PATH", default=None, help="write the JSON report here")
    verify.set_defaults(run=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        args = parser.parse_args(["verify"])
    try:
        # every line is built before any is written, so a refusal at any
        # step exits 2 with an empty stdout
        code, lines = args.run(args)
        print("\n".join(lines))
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except ValueError as exc:  # the parse errors of every grammar subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # as the SIGPIPE note in the signal module docs advises: send what
        # is still buffered to devnull, so the flush at exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


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
