"""Check that two src/ trees write the same outputs on data/mini.

    PYTHONPATH=src python scripts/same_outputs.py SRC_A SRC_B OUT

Runs `noisegate run --min-activity 5 --clusters-k 5 --top-k 5 --seed 7` on
data/mini under each of the seven ensemble variants, and `baseline
--detector NF2` with the same flags, once with each src/ tree on the
subprocess's PYTHONPATH.  Both sides write to the same directory,
OUT/work, which is then renamed to OUT/a or OUT/b, so the paths the
artifacts and stdout hold agree.  Every file is compared byte for byte but
report.json, which goes through reports_equal (it drops the timestamp);
so are each command's stdout, stderr and exit code.  Prints the files and
commands that differ and exits 1 if any do.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

from noisegate.ensemble import VARIANTS
from noisegate.pipeline import reports_equal

REPO = Path(__file__).resolve().parent.parent
FLAGS = ("--min-activity", "5", "--clusters-k", "5", "--top-k", "5", "--seed", "7")
# run id -> the command's arguments before the shared flags
CASES = {
    **{f"run-{v}": ("run", "--ensemble-variant", v) for v in VARIANTS},
    "baseline-NF2": ("baseline", "--detector", "NF2"),
}


def run_cases(src: Path, out: Path, cases: dict[str, tuple[str, ...]]) -> None:
    """Each case's command with src on PYTHONPATH, writing under out/work,
    which becomes out; each command's stdout, stderr and exit code go to
    out/<run id>.log."""
    work = out.parent / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    for run_id, command in cases.items():
        done = subprocess.run(
            [sys.executable, "-m", "noisegate.cli", *command,
             "--ratings-path", str(REPO / "data" / "mini" / "ratings.csv"),
             "--movies-path", str(REPO / "data" / "mini" / "movies.csv"),
             "--out-dir", str(work), "--run-id", run_id, *FLAGS],
            env=env, capture_output=True, text=True,
        )
        log = f"exit {done.returncode}\n-- stdout\n{done.stdout}-- stderr\n{done.stderr}"
        (work / f"{run_id}.log").write_text(log)
    shutil.rmtree(out, ignore_errors=True)
    work.rename(out)


def differing(a: Path, b: Path) -> tuple[list[str], int]:
    """The relative paths of the files that differ between trees a and b,
    or that only one holds, and how many files were compared."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    differ = [str(p) for p in sorted(files_a ^ files_b)]
    for rel in sorted(files_a & files_b):
        if rel.name == "report.json":
            same = reports_equal(a / rel, b / rel)
        else:
            same = (a / rel).read_bytes() == (b / rel).read_bytes()
        if not same:
            differ.append(str(rel))
    return sorted(differ), len(files_a | files_b)


def main(src_a: Path, src_b: Path, out: Path, cases: dict = CASES) -> int:
    run_cases(src_a, out / "a", cases)
    run_cases(src_b, out / "b", cases)
    differ, n_files = differing(out / "a", out / "b")
    for rel in differ:
        print(f"DIFFERS: {rel}")
    print(f"{len(cases)} commands, {n_files} files: {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(*(Path(arg).resolve() for arg in sys.argv[1:])))
