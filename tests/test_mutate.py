"""The mutation runner's pins stay attached to the mutants they explain."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutate():
    """``tests/mutate.py`` as a module; pytest does not collect it."""
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tests" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stale(mutate, equivalent):
    """The keys of ``equivalent`` that no mutant of their file has."""
    generated = {}
    for path in {key[0] for key in equivalent}:
        source = (ROOT / path).read_text(encoding="utf-8")
        generated[path] = {m.key for m in mutate.mutants(path, source)}
    return [key for key in equivalent if key not in generated[key[0]]]


def test_every_equivalent_pin_names_a_generated_mutant():
    # an edit to a pinned line, or a moved column, drops its pin silently:
    # the mutant then reads as an unexplained survivor only on the next run
    mutate = _mutate()
    assert mutate.EQUIVALENT
    assert _stale(mutate, mutate.EQUIVALENT) == []
    assert all(reason.strip() for reason in mutate.EQUIVALENT.values())
    # a pin whose line text, column or edit no longer matches is reported
    path, text, col, old, new = next(iter(mutate.EQUIVALENT))
    edited = {
        (path, text + " ", col, old, new): "line edited",
        (path, text, col + 1, old, new): "column moved",
        (path, text, col, old, old): "edit changed",
    }
    assert _stale(mutate, edited) == list(edited)
