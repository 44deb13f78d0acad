"""Mutation check: each listed guard or bound, broken on purpose, must fail a test.

Every mutant is one exact text edit to one file under ``src/``.  Before any
test runs, each edit's old text must occur exactly once in its file, or the
script stops with exit status 2: an edit that no longer matches would
otherwise report a survivor, or nothing, for code that has moved.  The
unmutated tree is then tested once, and must pass (exit status 2 if not).
After that each mutant is applied to its own temporary copy of ``src/``,
``tests/``, ``pyproject.toml`` and ``README.md``, and ``pytest -x -q`` runs
there over every test file, the mutated module's own ``tests/test_<module>.py``
first, so that most mutants fail early.  A mutant is killed when pytest
fails, and the first failing test is named; it survives when the whole suite
passes.  The exit status is 1 if any survives.

    python3 tools/mutants.py

This is not part of the test suite; a full run takes a few minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")

# (name, file, exact old text, new text)
MUTANTS = (
    ("packed width one byte narrow", "src/plexcount/counting.py",
     "power_width = _slot_width(1 << mult)",
     "power_width = max(1, _slot_width(1 << mult) - 1)"),
    ("half-slot count one short", "src/plexcount/counting.py",
     "slots = degree // 2 + 1",
     "slots = degree // 2"),
    ("packed multiply width from max, not sum", "src/plexcount/counting.py",
     "width = _slot_width(sum(a) * sum(b))",
     "width = _slot_width(max(a) * max(b))"),
    ("exact_div remainder guard", "src/plexcount/counting.py",
     "            if remainder:\n                raise ArithmeticError(\n"
     "                    f\"coefficient",
     "            if False:\n                raise ArithmeticError(\n"
     "                    f\"coefficient"),
    ("plex_count remainder guard", "src/plexcount/counting.py",
     "    if remainder:\n        raise ArithmeticError(\n            f\"orbit total",
     "    if False:\n        raise ArithmeticError(\n            f\"orbit total"),
    ("cycle count orbit-sum guard", "src/plexcount/cycle_index.py",
     "    if remainder:\n        raise ArithmeticError(\n            f\"orbit sum",
     "    if False:\n        raise ArithmeticError(\n            f\"orbit sum"),
    ("_PowerTables r range", "src/plexcount/cycle_index.py",
     "if not 1 <= r <= p:",
     "if False:"),
    ("inversion guard on a negative multiple", "src/plexcount/cycle_index.py",
     "if leftover or quotient < 0:",
     "if leftover:"),
    ("inversion point-cover guard", "src/plexcount/cycle_index.py",
     "    if covered != points:\n        raise",
     "    if False:\n        raise"),
    ("profile index radix one short, so indices collide", "src/plexcount/cycle_index.py",
     "self.bases = tuple(p // length + 1 for length in range(1, r + 1))",
     "self.bases = tuple(p // length for length in range(1, r + 1))"),
    ("profile index lane one size too narrow", "src/plexcount/cycle_index.py",
     "if top <= 1 << 8 * lane[0]",
     "if top <= 1 << 16 * lane[0]"),
    ("class-size factor k**m * m! without the m!", "src/plexcount/counting.py",
     "size**mult * factorial(mult)",
     "size**mult * mult"),
    ("replacement weight check", "src/plexcount/verify.py",
     "if surplus_weight != notes_weight:",
     "if False:"),
    ("exhaustive p cap", "src/plexcount/oracle.py",
     "if p > 7:",
     "if p > 8:"),
    ("exhaustive 2^20-state cap", "src/plexcount/oracle.py",
     "if width > 20:",
     "if width > 21:"),
    ("colex order", "src/plexcount/oracle.py",
     "key=lambda s: s[::-1]",
     "key=lambda s: s"),
    ("transposition generator", "src/plexcount/oracle.py",
     "(1, 0) + tuple(range(2, p))",
     "tuple(range(p))"),
    ("strict CLI integer reader", "src/plexcount/cli.py",
     "value = -_decimal(text[1:]) if text.startswith(\"-\") else _decimal(text)",
     "value = int(text)"),
    ("strict decimal strings, ASCII only", "src/plexcount/golden.py",
     "if not (text.isascii() and text.isdigit()):",
     "if not text.isdigit():"),
    ("Partition int parts", "src/plexcount/partitions.py",
     "if type(size) is not int or type(mult) is not int:",
     "if False:"),
    ("Partition part size >= 1", "src/plexcount/partitions.py",
     "if size < 1:",
     "if False:"),
    ("Partition multiplicity >= 0", "src/plexcount/partitions.py",
     "if mult < 0:",
     "if False:"),
    ("partition successor keeps the remainder part", "src/plexcount/partitions.py",
     "if rest:",
     "if False:"),
    ("partition successor keeps the larger parts of s", "src/plexcount/partitions.py",
     "if mult > 1:",
     "if mult > 2:"),
    ("CycleIndex int group order and points", "src/plexcount/cycle_index.py",
     "if type(group_order) is not int or type(ambient_points) is not int:",
     "if False:"),
    ("CycleIndex group order >= 1", "src/plexcount/cycle_index.py",
     "if group_order < 1 or ambient_points < 0:",
     "if False:"),
    ("CycleIndex int weights", "src/plexcount/cycle_index.py",
     "if type(weight) is not int:",
     "if False:"),
    ("CycleIndex weight >= 1", "src/plexcount/cycle_index.py",
     "if weight < 1:",
     "if False:"),
    ("CycleIndex term degree", "src/plexcount/cycle_index.py",
     "if cycle_type.ambient != ambient_points:",
     "if False:"),
    ("CycleIndex weight sum", "src/plexcount/cycle_index.py",
     "if sum(terms.values()) != group_order:",
     "if False:"),
    ("golden optional sections are lists", "src/plexcount/golden.py",
     "return _field(record, key, list) if key in record else []",
     "return record.get(key, [])"),
    ("golden one entry per key", "src/plexcount/golden.py",
     "if key in parsed:",
     "if False:"),
    ("golden duplicate monomial", "src/plexcount/golden.py",
     "if monomial in formula:",
     "if False:"),
    ("golden (7,2) and (7,3) present", "src/plexcount/golden.py",
     "if (7, n) not in data.counts:",
     "if False:"),
    ("golden (7,2) = (7,3) coincidence", "src/plexcount/golden.py",
     "if data.counts[(7, 2)] != data.counts[(7, 3)]:",
     "if False:"),
    ("golden positive counts", "src/plexcount/golden.py",
     "if value < 1:",
     "if False:"),
    ("golden positive coefficients", "src/plexcount/golden.py",
     "if coeff < 1:",
     "if False:"),
    ("golden term degree", "src/plexcount/golden.py",
     "if monomial not in skip and monomial.ambient != degree:",
     "if False:"),
    ("golden weight sum", "src/plexcount/golden.py",
     "if sum(formula.values()) != factorial(p):",
     "if False:"),
    ("golden discrepancy names a formula", "src/plexcount/golden.py",
     "if (p, r) not in data.formulas:\n            raise ValueError(f\"known",
     "if False:\n            raise ValueError(f\"known"),
    ("golden unmerged display has a formula", "src/plexcount/golden.py",
     "if (p, r) not in data.formulas:\n            raise ValueError(f\"unmerged",
     "if False:\n            raise ValueError(f\"unmerged"),
    ("golden unmerged merges to the formula", "src/plexcount/golden.py",
     "if merged != data.formulas[(p, r)]:",
     "if False:"),
    ("induce_on_subsets bijection check", "src/plexcount/oracle.py",
     "if sorted(perm) != list(range(p)):",
     "if False:"),
    ("induce_on_subsets r range", "src/plexcount/oracle.py",
     "    if not 1 <= r <= p:\n        raise ValueError(f\"need 1 <= r <= {p}",
     "    if False:\n        raise ValueError(f\"need 1 <= r <= {p}"),
    ("cycle_type_of bijection check", "src/plexcount/oracle.py",
     "if sorted(perm) != list(range(len(perm))):",
     "if False:"),
    ("p-cycle generator", "src/plexcount/oracle.py",
     "tuple(range(1, p)) + (0,)",
     "tuple(range(p))"),
    ("Burnside slot without its p! bits", "src/plexcount/oracle.py",
     "slot = degree + 1 + order.bit_length()",
     "slot = degree + 1"),
    ("byte-table shift one bit short", "src/plexcount/oracle.py",
     "mask >>= 8",
     "mask >>= 7"),
    ("orbit sweep resumes one mask late", "src/plexcount/oracle.py",
     "start = seen.find(0, start + 1)",
     "start = seen.find(0, start + 2)"),
)


def fail(message: str) -> None:
    print(f"mutants.py: {message}", file=sys.stderr)
    sys.exit(2)


def check_matches() -> None:
    """Exit 2 unless every mutant's old text occurs exactly once in its file."""
    bad = []
    for name, file, old, _ in MUTANTS:
        count = (ROOT / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            bad.append(f"{name}: old text occurs {count} times in {file}")
    if bad:
        fail("edits do not match exactly once:\n  " + "\n  ".join(bad))


def run_tests(mutant: tuple[str, str, str, str] | None) -> str | None:
    """Run pytest -x -q on a fresh copy with the mutant applied.

    Returns None if the tests pass, else the first failing test's id.
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="plexcount-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        first = None
        if mutant is not None:
            _, file, old, new = mutant
            target = copy / file
            target.write_text(target.read_text(encoding="utf-8").replace(old, new),
                              encoding="utf-8")
            first = f"tests/test_{target.stem}.py"
        files = sorted((str(path.relative_to(copy))
                        for path in (copy / "tests").glob("test_*.py")),
                       key=lambda name: (name != first, name))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files],
            cwd=copy, env=env, capture_output=True, text=True)
    if result.returncode == 0:
        return None
    failed = [line.split()[1] for line in result.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit status {result.returncode}"


def main() -> int:
    check_matches()
    start = time.perf_counter()
    failure = run_tests(None)
    if failure is not None:
        fail(f"the unmutated tests fail ({failure}); no mutant was run")
    survivors = 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        killer = run_tests(mutant)
        survivors += killer is None
        verdict = "SURVIVED" if killer is None else f"killed by {killer}"
        print(f"{mutant[0]} ({mutant[1]}, {time.perf_counter() - t0:.1f} s): {verdict}",
              flush=True)
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
