"""Golden outputs: each case under tests/golden/ reruns its argv through the CLI
and must give its checked-in files, within bounds above the rounding floors.

A case is a directory holding ``argv.json`` (a CLI argv without ``--out``),
the ``eigenvalues.csv`` it wrote and, for a run with a grid, its
``pseudospectrum.csv``.  The cases are the benchmark's three argv (the LS one
at seeds 1-3), a DtN cavity run at p = 4 and an LS run at p = 3, whose T(k)
is cut at the degree-6 Gauss-Lobatto nodes too.  Row counts and the integer
and label columns must be identical; k, eps and s_min may move by rounding:

- k within 1e-10 (1 + |k|), above the 4.4e-12 floor of x^T T(k) x;
- ref_dist within sqrt(2) 1e-10 (1 + |k|), as far as a k within those bounds
  can move its distance to the reference;
- eps within 1e-10 max(1, eps), above the 2.2e-11 floor of the DtN axis mode;
- s_min within 1e-8 relative.

``python tests/test_golden.py CASE...`` writes the files of the cases named
from their argv at the current code; with no name it prints its usage and
rewrites nothing, so rebaselining every case means naming every case.  A
change that moves an output on purpose rewrites them and records their diff.
"""

import csv
import json
import math
import pathlib
import shutil
import sys
import tempfile

import pytest

from helmres import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "argv.json").is_file())
OUTPUTS = ("eigenvalues.csv", "pseudospectrum.csv")
EXACT = ("j", "feasible", "ref_match", "parity")


def _run(case: str, out: pathlib.Path) -> None:
    argv = json.loads((GOLDEN / case / "argv.json").read_text(encoding="utf-8"))
    assert cli.main(argv + ["--out", str(out)]) == 0, argv


def _rows(path: pathlib.Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(got: str, want: str, bound: float) -> bool:
    """Equal as written, or finite and within ``bound``."""
    return got == want or abs(float(got) - float(want)) <= bound < math.inf


@pytest.mark.parametrize("case", CASES)
def test_golden_outputs(case, tmp_path):
    _run(case, tmp_path)
    for name in OUTPUTS:
        want_path = GOLDEN / case / name
        assert (tmp_path / name).is_file() == want_path.is_file(), name
        if not want_path.is_file():
            continue
        got, want = _rows(tmp_path / name), _rows(want_path)
        assert len(got) == len(want), name
        for i, (g, w) in enumerate(zip(got, want)):
            where = f"{case}/{name} row {i}"
            assert list(g) == list(w), where
            for column in EXACT:
                assert g.get(column) == w.get(column), (where, column)
            scale = 1.0 + abs(complex(float(w["re_k"]), float(w["im_k"])))
            bounds = {"re_k": 1e-10 * scale, "im_k": 1e-10 * scale}
            if "ref_dist" in w:
                bounds["ref_dist"] = math.sqrt(2.0) * 1e-10 * scale
            if "epsilon" in w:
                bounds["epsilon"] = 1e-10 * max(1.0, float(w["epsilon"]))
            if "smin" in w:
                bounds["smin"] = 1e-8 * float(w["smin"])
            for column, bound in bounds.items():
                assert _close(g[column], w[column], bound), (where, column, g[column], w[column])


def regenerate(names: list[str]) -> int:
    """Rewrite the output files of the cases named from their argv at the
    current code, and return 0; with none named, print the usage and return 2.
    A named case need only hold its ``argv.json``."""
    if not names:
        print("usage: python tests/test_golden.py CASE...\ncases: " + " ".join(CASES),
              file=sys.stderr)
        return 2
    for case in names:
        with tempfile.TemporaryDirectory() as out:
            _run(case, pathlib.Path(out))
            for name in OUTPUTS:
                if (pathlib.Path(out) / name).is_file():
                    shutil.copyfile(pathlib.Path(out) / name, GOLDEN / case / name)
        print(case, "rewritten")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
