"""Mutation testing: would the tests notice a small wrong edit of one file?

Usage::

    python tests/mutate.py src/hirzcoh/p1.py [--jobs N] [TEST ...]

Each mutant changes one token of the file: a comparison flipped (``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``), ``+`` and ``-`` swapped in a
binary operation, or an integer literal plus 1.  The tree is copied once
per job into a temporary directory, and each mutant is judged there by
``pytest -x`` over the TEST paths: by default ``tests/test_<stem>.py`` first
and then the rest of ``tests/``, always without ``tests/test_mutate.py``.  A mutant is killed when a test fails, or
when the run takes more than ten times the unmutated run; it survives when
every test passes.

Every survivor is printed as ``file:line:col old -> new`` with its line.
A survivor whose line, column and edit are listed in ``EQUIVALENT``, with
the reason it changes no behaviour, is accepted; any other survivor makes
the run exit 1.  The script uses the standard library only, and pytest does
not collect it: it is not part of tier-1, and one file's run takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==", "+": "-", "-": "+"}
_COMPARE_OPS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="
}
_BIN_OPS = {ast.Add: "+", ast.Sub: "-"}

_P1 = "src/hirzcoh/p1.py"
_PROGRESSION = "if small * size > _SYM_ENUMERATION_LIMIT or size > _SYM_PROGRESSION_PAIRS:"
_RANK_INT = "if k * (n.bit_length() + 2) > _SYM_RANK_BITS and ("
_RANK_FLOAT = "k > _SYM_RANK_BITS or k * (log2(n) - log2(k or 1) + log2(e)) > _SYM_RANK_BITS"
_SHORTCUT = "the integer bound only spares the float bound work; the float bound decides alone"
_SIGN_FIRST = 'parts.append(f"-{body}" if coeff < 0 else body)'
_SIGN_LATER = "parts.append(f\"{'-' if coeff < 0 else '+'} {body}\")"
_HZ = "src/hirzcoh/hirzebruch.py"
_HZ_SIGN = 'sign = "-" if coeff < 0 else ("+" if parts else "")'
_PRIMES = "src/hirzcoh/primes.py"
_SQUARING = (
    "the squarings added reach a^(d*2^j) for j >= s only, and none is n - 1: a^(d*2^j) = -1 "
    "mod n makes 2^(j+1) divide p - 1 for each prime p | n, so 2^(j+1) | n - 1 and j < s"
)

#: (file, stripped line, column, old, new) -> why the mutant changes no behaviour
EQUIVALENT = {
    (_P1, "if slope > 0 and top + slope * n >= 0:", 17, ">", ">="):
        "top < 0 here, so at slope 0 the second test fails either way",
    (_P1, "if m * n_monomials > _SYM_ENUMERATION_LIMIT:", 27, ">", ">="):
        "m * comb(r + m - 1, m) is 5 000 000 for no m >= 2 (searched every r < 2300)",
    (_P1, _PROGRESSION, 20, ">", ">="):
        "min(n, m) * (n*m + 1) is 5 000 000 only with 5 000 000 pairs, which the pair "
        "bound refuses with the same message",
    (_P1, _RANK_INT, 29, "2", "3"): _SHORTCUT,
    (_P1, _RANK_INT, 32, ">", ">="): _SHORTCUT,
    (_P1, _RANK_FLOAT, 10, ">", ">="):
        "at k = 100 000 the float bound refuses too: n >= 2k makes k*log2(e*n/k) > k",
    (_P1, _RANK_FLOAT, 55, "1", "2"):
        "k is 0 only at rank 1, whose integer bound 0 passes before the float bound runs",
    (_P1, _RANK_FLOAT, 69, ">", ">="):
        "k times a sum of three float logarithms lands on exactly 100000.0 for no known input",
    (_P1, "if gap >= -1:  # H^1(O(gap)) = 0: splitting is forced", 11, ">=", ">"):
        "at gap -1 the nonsplit type {sub + 1, quot - 1} is the split type {quot, sub}",
    (_P1, _SIGN_FIRST, 49, "<", "<="): "zero coefficients are skipped above",
    (_P1, _SIGN_FIRST, 51, "0", "1"): "coeff < 1 is coeff < 0 on the nonzero integers left",
    (_P1, _SIGN_LATER, 45, "<", "<="): "zero coefficients are skipped above",
    (_P1, _SIGN_LATER, 47, "0", "1"): "coeff < 1 is coeff < 0 on the nonzero integers left",
    (_P1, "len(body) <= _INT_DIGITS", 22, "<=", "<"):
        "at exactly 4300 characters the per-token digit count that follows gives the same answer",
    (_HZ, 'if len(text) > _INT_DIGITS and len(text.lstrip("+-")) > _INT_DIGITS:', 17, ">", ">="):
        "at exactly 4300 characters the stripped length that follows is at most 4300 either way",
    (_HZ, _HZ_SIGN, 28, "<", "<="): "zero coefficients are skipped above",
    (_HZ, _HZ_SIGN, 30, "0", "1"): "coeff < 1 is coeff < 0 on the nonzero integers left",
    (_PRIMES, "d, s = n - 1, 0", 18, "0", "1"): _SQUARING,
    (_PRIMES, "d, s = d // 2, s + 1", 27, "1", "2"): _SQUARING,
    (_PRIMES, "for _ in range(s - 1):", 25, "-", "+"): _SQUARING,
}


class Mutant:
    """One token of one file replaced: ``old`` at (line, col) becomes ``new``."""

    def __init__(self, path: str, lines: list[str], line: int, col: int, old: str, new: str):
        self.path, self.line, self.col, self.old, self.new = path, line, col, old, new
        self.text = lines[line - 1].strip()

    @property
    def key(self) -> tuple:
        return (self.path, self.text, self.col, self.old, self.new)

    def apply(self, lines: list[str]) -> str:
        row = lines[self.line - 1]
        assert row[self.col : self.col + len(self.old)] == self.old, self.key
        edited = row[: self.col] + self.new + row[self.col + len(self.old) :]
        return "".join(lines[: self.line - 1] + [edited] + lines[self.line :])

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.old} -> {self.new}  | {self.text}"


def mutants(path: str, source: str) -> list[Mutant]:
    """Every mutant of ``source``, in file order."""
    lines = source.splitlines(keepends=True)
    # operator tokens by position; ast gives the operands' positions only
    ops = {
        tok.start: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.OP and tok.string in FLIPS
    }

    def char_col(line: int, byte_col: int) -> int:
        return len(lines[line - 1].encode()[:byte_col].decode())

    def op_between(left: ast.AST, right: ast.AST, want: str) -> tuple[int, int]:
        start = (left.end_lineno, char_col(left.end_lineno, left.end_col_offset))
        stop = (right.lineno, char_col(right.lineno, right.col_offset))
        hits = [pos for pos, text in ops.items() if start <= pos < stop and text == want]
        if hits:
            return min(hits)
        # inside an f-string, which tokenizes as one string before Python 3.12
        return start[0], lines[start[0] - 1].index(want, start[1])

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) in _COMPARE_OPS:
                    text = _COMPARE_OPS[type(op)]
                    line, col = op_between(operands[i], operands[i + 1], text)
                    found.append(Mutant(path, lines, line, col, text, FLIPS[text]))
        elif isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
            text = _BIN_OPS[type(node.op)]
            line, col = op_between(node.left, node.right, text)
            found.append(Mutant(path, lines, line, col, text, FLIPS[text]))
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and node.lineno == node.end_lineno
        ):
            col = char_col(node.lineno, node.col_offset)
            end = char_col(node.lineno, node.end_col_offset)
            old = lines[node.lineno - 1][col:end]
            found.append(Mutant(path, lines, node.lineno, col, old, str(node.value + 1)))
    return sorted(found, key=lambda m: (m.line, m.col, m.new))


def copy_tree(dest: Path) -> None:
    """The tracked files of the repository, without caches."""
    tracked = subprocess.run(
        ["git", "ls-files", "-z"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.split("\0")
    for name in filter(None, tracked):
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, target)


def run_tests(tree: Path, tests: list[str], timeout: float | None) -> tuple[bool, float]:
    """(whether every test passed, seconds taken) for pytest -x in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    # test_mutate.py checks EQUIVALENT against the source text, so it would
    # kill every mutant of a pinned line whatever the program does
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    cmd += ["--ignore=tests/test_mutate.py", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("file", help="source file to mutate, relative to the repository")
    parser.add_argument(
        "tests", nargs="*", help="pytest paths (default: its test file, then tests/)"
    )
    parser.add_argument("--jobs", type=int, default=1, help="mutants judged at once")
    args = parser.parse_args(argv)

    path = Path(args.file).resolve().relative_to(ROOT).as_posix()
    source = (ROOT / path).read_text(encoding="utf-8")
    lines = source.splitlines(keepends=True)
    own = f"tests/test_{Path(path).stem}.py"
    tests = args.tests or ([own] if (ROOT / own).exists() else []) + ["tests"]
    todo = mutants(path, source)

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        trees = [Path(tmp) / str(job) for job in range(max(1, args.jobs))]
        for tree in trees:
            copy_tree(tree)
        passed, base_s = run_tests(trees[0], tests, None)
        if not passed:
            print(f"the unmutated tree fails: pytest -x {' '.join(tests)}", file=sys.stderr)
            return 2
        print(f"{len(todo)} mutants of {path}; unmutated run {base_s:.1f} s", flush=True)
        free: queue.SimpleQueue[Path] = queue.SimpleQueue()  # one tree per running judge
        for tree in trees:
            free.put(tree)

        def judge(mutant: Mutant) -> bool:
            tree = free.get()
            try:
                (tree / path).write_text(mutant.apply(lines), encoding="utf-8")
                return run_tests(tree, tests, 10 * base_s + 10)[0]
            finally:
                (tree / path).write_text(source, encoding="utf-8")
                free.put(tree)

        survived = []
        with ThreadPoolExecutor(len(trees)) as pool:
            for mutant, alive in zip(todo, pool.map(judge, todo)):
                if alive:
                    survived.append(mutant)
                    reason = EQUIVALENT.get(mutant.key)
                    print(f"{'equivalent' if reason else 'SURVIVED'}: {mutant}", flush=True)
                    if reason:
                        print(f"    {reason}", flush=True)

    unexplained = [m for m in survived if m.key not in EQUIVALENT]
    killed = len(todo) - len(survived)
    print(f"killed {killed} of {len(todo)}; {len(unexplained)} survivors not pinned as equivalent")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
