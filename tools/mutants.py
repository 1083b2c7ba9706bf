"""Run a fixed catalogue of source mutants and report what kills each one.

    python3 tools/mutants.py

Each mutant is one exact text replacement in one file of the package.  An
entry whose old text does not occur exactly once in this checkout is an
error, reported before anything runs: a stale catalogue must be mended, not
skipped.

Each mutant runs on a fresh copy of ``src``, ``tests``, ``tools`` and
``perfbench`` in a temporary directory, never on the working tree, one
subprocess at a time, in three steps that stop at the first kill:

1. Tier-1 without the differential pin, stopping at the first failure;
2. the four suites through ``cli.main`` on the Z^2 capped-sum table at
   depth 50 (the verify-battery table), at fixed seeds;
3. the differential pin, ``tests/test_differential.py``.

One line per mutant says whether it was killed by a test (the first
failing id), killed by a suite (which checks), caught only by the pin, or
survived.  The unmutated copy goes through the same steps first and must
pass them all.  Only entries marked equivalent, with a reason, may
survive; any other survivor, or a stale entry, makes the exit status 1.
The last line counts the four outcomes.  The 31 entries take about 7.5
minutes on 2 noisy vCPUs with Python 3.11.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")
PIN = "tests/test_differential.py::test_differential_output_is_unchanged"
EVALUATOR = "src/monothetic/evaluator.py"
VERIFICATION = "src/monothetic/verification.py"
COUNTEREXAMPLE = "src/monothetic/counterexample.py"
GROUPS = "src/monothetic/groups.py"
SERIALIZE = "src/monothetic/serialize.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    equivalent: Optional[str] = None


CATALOGUE = (
    # The branch test in the descent.
    Mutant("branch-test-one-unit-early", EVALUATOR,
           "if cost * width + abs(rest) * scale >= scale * width:",
           "if (cost + 1) * width + abs(rest) * scale >= scale * width:"),
    Mutant("branch-test-strict", EVALUATOR,
           "if cost * width + abs(rest) * scale >= scale * width:",
           "if cost * width + abs(rest) * scale > scale * width:",
           equivalent="a leaf of anchor cost exactly 1 is the only vector of cost <= 1 "
                      "with its c-power, so no leaf below 1 is lost, and evaluate's "
                      "total test refuses it"),
    # The frame's records.
    Mutant("cap-j", EVALUATOR,
           "self.levels.append((k, self.scale // j, j - 1, self.reach,",
           "self.levels.append((k, self.scale // j, j, self.reach,"),
    Mutant("widest-after-update", EVALUATOR,
           "        self.levels.append((k, self.scale // j, j - 1, self.reach, self.widest,\n",
           "        self.widest = max(self.widest, j * k)\n"
           "        self.levels.append((k, self.scale // j, j - 1, self.reach, self.widest,\n"),
    Mutant("widest-starts-at-zero", EVALUATOR,
           "        self.widest = 1\n",
           "        self.widest = 0\n"),
    Mutant("gap-after-reach", EVALUATOR,
           "        self.gaps.append(k - self.reach)\n"
           "        self.reach += (j - 1) * k\n",
           "        self.reach += (j - 1) * k\n"
           "        self.gaps.append(k - self.reach)\n"),
    Mutant("growth-stops-at-equal-gap", EVALUATOR,
           "while stop <= index_cap and gaps[-1] <= target:",
           "while stop <= index_cap and gaps[-1] < target:"),
    Mutant("start-not-clamped-to-cap", EVALUATOR,
           "    if stop > index_cap:\n        stop = index_cap + 1\n",
           ""),
    # The descriptor checks.
    Mutant("search-descriptor-identity-only", EVALUATOR,
           '    descriptor = x.h.descriptor\n'
           '    if descriptor is not table.descriptor and descriptor != table.descriptor:\n'
           '        raise ShapeError("element does not conform to the table\'s descriptor")\n'
           '\n    frame, start',
           '    descriptor = x.h.descriptor\n'
           '    if descriptor is not table.descriptor:\n'
           '        raise ShapeError("element does not conform to the table\'s descriptor")\n'
           '\n    frame, start'),
    Mutant("evaluate-descriptor-check-dropped", EVALUATOR,
           '    if descriptor is not table.descriptor and descriptor != table.descriptor:\n'
           '        raise ShapeError("element does not conform to the table\'s descriptor")\n'
           '    if x.k == 0:',
           '    if x.k == 0:'),
    # evaluate's comparison of the leaf with 1 - epsilon.
    Mutant("leaf-test-dropped", EVALUATOR,
           "if found is None or found.cost.numerator * den > (den - num) * found.cost.denominator:",
           "if found is None:"),
    Mutant("leaf-test-at-equality", EVALUATOR,
           "found.cost.numerator * den > (den - num) * found.cost.denominator",
           "found.cost.numerator * den >= (den - num) * found.cost.denominator"),
    Mutant("leaf-test-one-unit-tight", EVALUATOR,
           "found.cost.numerator * den > (den - num) * found.cost.denominator",
           "(found.cost.numerator + 1) * den > (den - num) * found.cost.denominator"),
    Mutant("truncated-value-uncapped", EVALUATOR,
           "return ONE if found is None else min(found.cost, ONE)",
           "return ONE if found is None else found.cost"),
    # truncation_index takes epsilon.
    Mutant("epsilon-range-check-dropped", EVALUATOR,
           "    if not 0 < num < den:   # 0 < epsilon < 1, the denominator being positive\n"
           '        raise DomainError("epsilon must lie strictly between 0 and 1")\n',
           ""),
    Mutant("bound-floor-not-ceil", EVALUATOR,
           "bound = -(-abs(k) * den // num)",
           "bound = abs(k) * den // num"),
    # truncation_index grows the table only to the level, after the depth check.
    Mutant("level-grows-one-short", EVALUATOR,
           "        table.prefix(n)\n",
           "        table.prefix(n - 1)\n"),
    Mutant("level-grows-before-depth-check", EVALUATOR,
           "        require_depth(table, n)\n        table.prefix(n)\n",
           "        table.prefix(n)\n        require_depth(table, n)\n"),
    Mutant("level-fast-path-skipped", EVALUATOR,
           "    if not powers or powers[-1] < bound:\n",
           "    if True:\n"),
    # One shared interval certificate per (epsilon, level).
    Mutant("interval-level-dropped", EVALUATOR,
           "return IntervalResult(Fraction(den - num, den), ONE, level)",
           "return IntervalResult(Fraction(den - num, den), ONE, 0)"),
    Mutant("interval-lower-is-epsilon", EVALUATOR,
           "return IntervalResult(Fraction(den - num, den), ONE, level)",
           "return IntervalResult(Fraction(num, den), ONE, level)"),
    Mutant("interval-numerator-fixed", EVALUATOR,
           "return _interval(num, den, level)",
           "return _interval(1, den, level)"),
    Mutant("axioms-interval-triangle-dropped", VERIFICATION,
           "if min(ONE, vx + vy) <= rxy.lower:",
           "if False:"),
    # The counterexample certificates in integers, and the scan's rows.
    Mutant("certificate-own-denominator", COUNTEREXAMPLE,
           "abs(m) * p1 * q2",
           "abs(m) * p1 * q1"),
    Mutant("margin-numerator-plus", COUNTEREXAMPLE,
           "Fraction(required * den - num, den)",
           "Fraction(required * den + num, den)"),
    Mutant("row-slice-shifted", COUNTEREXAMPLE,
           "emit(n, classes[n - 1:n - 1 + limit])",
           "emit(n, classes[n:n + limit])"),
    Mutant("scan-skips-identity-check", COUNTEREXAMPLE,
           "    v = worst_case_value(limit)\n    _check_identity()\n",
           "    v = worst_case_value(limit)\n"),
    # One descriptor object per loaded group shape, hashed once.  The
    # rank-only cache stays bounded, so only a wrong answer can kill it.
    Mutant("interned-by-rank-only", SERIALIZE,
           "@lru_cache(maxsize=64)\n"
           "def _shared_descriptor(free_rank: int, torsion_moduli: tuple[int, ...]) -> GroupDescriptor:\n"
           "    return GroupDescriptor(free_rank, torsion_moduli)\n",
           "@lru_cache(maxsize=64)\n"
           "def _rank_slot(free_rank: int) -> list:\n"
           "    return []\n\n\n"
           "def _shared_descriptor(free_rank: int, torsion_moduli: tuple[int, ...]) -> GroupDescriptor:\n"
           "    slot = _rank_slot(free_rank)\n"
           "    if not slot:\n"
           "        slot.append(GroupDescriptor(free_rank, torsion_moduli))\n"
           "    return slot[0]\n"),
    Mutant("descriptor-hash-ignores-torsion", GROUPS,
           'object.__setattr__(self, "_hash", hash((self.free_rank, self.torsion_moduli)))',
           'object.__setattr__(self, "_hash", hash(self.free_rank))'),
    Mutant("require-same-identity-only", GROUPS,
           "if self.descriptor is not other.descriptor and self.descriptor != other.descriptor:",
           "if self.descriptor is not other.descriptor:"),
    Mutant("element-coerces", GROUPS,
           "return operator.index(value)",
           "return int(value)"),
)

# The four suites through cli.main, on a table built by cli.main; prints
# one line per suite: its name, its exit code and the checks it reported.
SUITE_RUN = """
import contextlib, io, json, sys
from monothetic.cli import main
table = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    built = main(["build", "--group", '{"free_rank":2}', "--norm",
                  '{"type":"capped_l1","weights":["1/1","1/1"]}',
                  "--depth", "50", "--out", table])
if built != 0:
    sys.exit(f"build exited {built}")
for suite, samples in (("extension", 4000), ("axioms", 1936), ("density", 25),
                       ("truncation", 200)):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--table", table, "--suite", suite,
                     "--samples", str(samples), "--seed", "0"])
    try:
        checks = sorted({v["check"] for r in json.loads(out.getvalue())
                         for v in r["violations"]})
    except (ValueError, KeyError, TypeError):
        checks = ["unreadable report"]
    print(suite, code, " ".join(checks))
"""


def applies_once(mutant):
    return (ROOT / mutant.path).read_text().count(mutant.old) == 1


def copy_tree(dest):
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", "_run", ".hypothesis"))
        else:
            shutil.copy2(source, dest / name)


def run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=900)


def first_failure(output):
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return None


def judge(tree):
    """(outcome, detail): 'test', 'suite', 'pin' or 'survived'."""
    tests = run(["-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors", "--deselect", PIN], tree)
    if tests.returncode != 0:
        return "test", first_failure(tests.stdout) or f"pytest exit {tests.returncode}"
    suites = run(["-c", SUITE_RUN, str(tree / "table.json")], tree)
    if suites.returncode != 0:
        last = (suites.stderr.strip().splitlines() or ["no output"])[-1]
        return "suite", f"crashed: {last}"
    failed = [line for line in suites.stdout.splitlines() if line.split()[1] != "0"]
    if failed:
        return "suite", "; ".join(failed)
    pin = run(["-m", "pytest", "-q", "-p", "no:cacheprovider", PIN], tree)
    return ("pin" if pin.returncode != 0 else "survived"), ""


def main():
    stale = [m.name for m in CATALOGUE if not applies_once(m)]
    for name in stale:
        print(f"error: {name} does not apply exactly once")
    if stale:
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        base = Path(scratch) / "unmutated"
        base.mkdir()
        copy_tree(base)
        outcome, detail = judge(base)
        if outcome != "survived":
            print(f"error: the unmutated copy fails: {outcome} {detail}")
            return 1
        shutil.rmtree(base)
        counts = dict.fromkeys(("test", "suite", "pin", "survived"), 0)
        bad = 0
        for mutant in CATALOGUE:
            tree = Path(scratch) / mutant.name
            tree.mkdir()
            copy_tree(tree)
            path = tree / mutant.path
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
            outcome, detail = judge(tree)
            shutil.rmtree(tree)
            counts[outcome] += 1
            if outcome == "test":
                line = f"killed by a test: {detail}"
            elif outcome == "suite":
                line = f"killed by a suite: {detail}"
            elif outcome == "pin":
                line = "caught only by the differential pin"
            elif mutant.equivalent:
                line = f"survived, equivalent: {mutant.equivalent}"
            else:
                line = "SURVIVED"
                bad += 1
            print(f"{mutant.name}: {line}", flush=True)
    print(f"{len(CATALOGUE)} mutants: {counts['test']} killed by tests, {counts['suite']} by "
          f"suites, {counts['pin']} caught only by the differential pin, "
          f"{counts['survived']} survived ({counts['survived'] - bad} marked equivalent)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
