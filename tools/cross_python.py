"""Check that every Python interpreter given writes the same output bytes.

    python3 tools/cross_python.py [--seed N] PYTHON [PYTHON ...]

waasim's JSON writer rests on `repr(float)`, `json.encoder` and
`typing.get_type_hints`, which each interpreter brings its own of. For each
interpreter, this runs `bench/rep.py` for every benchmark workload at seed
N (default 808), each into the same `--out` directory, since the sweep's
config and manifest hold that path, and keeps the tree it writes. It then
compares every interpreter's trees with the first one's, file by file and
byte for byte, prints each difference, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import filecmp
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REP = ROOT / "bench" / "rep.py"
sys.path.insert(0, str(REP.parent))
from rep import WORKLOADS  # noqa: E402  (rep.py imports no waasim at import)


def _files(tree: Path) -> set[Path]:
    return {path.relative_to(tree) for path in tree.rglob("*") if path.is_file()}


def differences(first: Path, other: Path) -> list[str]:
    """The relative paths that only one of two trees holds, or whose bytes
    differ between them."""
    a, b = _files(first), _files(other)
    found = [f"only in {first}: {path}" for path in sorted(a - b)]
    found += [f"only in {other}: {path}" for path in sorted(b - a)]
    found += [f"differs: {path}" for path in sorted(a & b)
              if not filecmp.cmp(first / path, other / path, shallow=False)]
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=808)
    parser.add_argument("pythons", nargs="+", help="interpreter paths")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        out, trees = Path(scratch) / "out", Path(scratch) / "trees"
        for i, python in enumerate(args.pythons):
            for name in sorted(WORKLOADS):
                subprocess.run([python, str(REP), "--workload", name, "--seed", str(args.seed),
                                "--out", str(out)], check=True, stdout=subprocess.DEVNULL)
                (trees / str(i)).mkdir(parents=True, exist_ok=True)
                shutil.move(out, trees / str(i) / name)
        found = []
        for i, python in enumerate(args.pythons[1:], 1):
            for name in sorted(WORKLOADS):
                found += [f"{python} vs {args.pythons[0]}, {name}: {line}"
                          for line in differences(trees / "0" / name, trees / str(i) / name)]
    print("\n".join(found) or f"identical under {len(args.pythons)} interpreters "
          f"({len(WORKLOADS)} workloads, seed {args.seed})")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
