"""Mutation check: deliberate faults in src/sbw that named tests must kill.

Usage:
    python3 mutants/run.py [NAME ...]

Each mutant is one exact edit, (file, old text, new text), plus the test
node ids that must catch it.  The script copies src/, tests/ and
pyproject.toml to a temporary directory, runs every listed test once on
the unmutated copy, then applies one mutant at a time and runs only that
mutant's tests with pytest.  A mutant is killed when pytest reports a
failing test.  The exit code is 1 if a mutant survives, if its old text
does not occur exactly once in its file (so the list must follow every
refactor of the code it names), or if its tests fail or are missing on
the unmutated copy; it is 0 otherwise.  With names, only those mutants
run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str          # relative to the root of the checkout
    old: str           # must occur exactly once in the file
    new: str
    tests: tuple       # pytest node ids, relative to the root


_LINKAGE_REF = ("tests/test_verify.py::"
                "test_linkage_suite_agrees_with_the_all_combinations_sweep")
_COVER_TEST = ("tests/test_classify.py::"
               "test_ideal_span_oracle_falls_back_when_the_cover_falls_short")

MUTANTS = (
    # direct_product builds its Group unvalidated; the certificate test
    # validates each table it builds.
    Mutant("product-table-shifted", "src/sbw/groups.py",
           "row[c * ho + d] = rc + rb[d]",
           "row[c * ho + d] = rc + rb[(d + 1) % ho]",
           ("tests/test_groups.py::"
            "test_direct_product_tables_pass_the_full_group_check",)),
    # An order exit that reads elements as well as orders.  The suite runs
    # one combination per mismatched signature pair, all of which this
    # answers right on groups up to order 4, so only the all-combinations
    # reference sees it there.
    Mutant("section-order-exit-reads-elements", "src/sbw/sections.py",
           "        return False\n    return any(_constrained_pairs(",
           "        return K.elems[-1] > K.order\n"
           "    return any(_constrained_pairs(",
           (_LINKAGE_REF,)),
    # The span oracle's monomial-cover certificate.
    Mutant("cover-without-support-check", "src/sbw/classify.py",
           "rank = len(cover) if support <= cover else rational_rank(",
           "rank = len(cover) if cover else rational_rank(",
           (_COVER_TEST,)),
    Mutant("cover-fed-by-mixed-products", "src/sbw/classify.py",
           "                    support.update(prod)\n",
           "                    support.update(prod)\n"
           "                    cover.update(prod)\n",
           (_COVER_TEST,)),
    Mutant("fallback-drops-cover-units", "src/sbw/classify.py",
           "[{c: 1} for c in cover] + [dict(v) for v in mixed]",
           "[dict(v) for v in mixed]",
           (_COVER_TEST,)),
    # The matrix certificate's cells.
    Mutant("cell-without-lower-bound", "src/sbw/classify.py",
           "if rational_rank(cell) != gsize:",
           "if rational_rank(cell) > gsize:",
           ("tests/test_classify.py::"
            "test_matrix_decomposition_rejects_a_deficient_cell",)),
    Mutant("cell-reads-transposed-bimodule-set", "src/sbw/classify.py",
           "G, G, *members[i], *members[j])",
           "G, G, *members[j], *members[i])",
           ("tests/test_classify.py::"
            "test_matrix_decomposition_matches_frozen_dims",)),
)


def _pytest(work: Path, env: dict, tests) -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    bad = 0
    with tempfile.TemporaryDirectory(prefix="sbw-mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        env = dict(os.environ, PYTHONPATH=str(work / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import sbw; print(sbw.__file__)"],
            cwd=work, env=env, capture_output=True, text=True).stdout
        if not where.startswith(str(work)):
            print(f"sbw imports from {where.strip()!r}, not from the copy")
            return 1
        tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(work, env, tests) != 0:
            print("the listed tests do not all pass on the unmutated copy")
            return 1
        for m in chosen:
            path = work / m.file
            text = path.read_text()
            count = text.count(m.old)
            if count != 1:
                print(f"STALE    {m.name}: old text found {count} times "
                      f"in {m.file}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            try:
                rc = _pytest(work, env, m.tests)
            finally:
                path.write_text(text)
            verdict = "killed" if rc == 1 else "SURVIVED" if rc == 0 \
                else f"ERROR rc={rc}"
            print(f"{verdict:8} {m.name}")
            bad += rc != 1
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
