"""Check that two src/ trees write the same outputs on data/mini.

    PYTHONPATH=src python scripts/same_outputs.py SRC_A SRC_B OUT

Runs `noisegate run --min-activity 5 --clusters-k 5 --top-k 5 --seed 7` on
data/mini under each of the seven ensemble variants, `baseline --detector
NF2` with the same flags, and the five stage commands (`ingest` to
`evaluate`) as five processes on one run id, once with each src/ tree on
the subprocess's PYTHONPATH; after each case, `noisegate report` prints
the case's report.json.  Both sides write to the same directory,
OUT/work, which is then renamed to OUT/a or OUT/b, so the paths the
artifacts and stdout hold agree.  Every file is compared byte for byte but
report.json, which goes through reports_equal (it drops the timestamp);
so are each command's stdout, stderr and exit code.  Prints each file
that differs (DIFFERS:) or that only one side wrote (ONLY IN A: or ONLY IN
B:), and exits 1 if there is any.
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
# run id -> its commands in order, each as its arguments before the shared flags
CASES = {
    **{f"run-{v}": (("run", "--ensemble-variant", v),) for v in VARIANTS},
    "baseline-NF2": (("baseline", "--detector", "NF2"),),
    "staged": tuple((stage,) for stage in ("ingest", "detect", "ensemble", "signature",
                                           "evaluate")),
}


def run_cases(src: Path, out: Path, cases: dict[str, tuple[tuple[str, ...], ...]]) -> None:
    """Each case's commands, then `report <run id>/report.json`, with src
    on PYTHONPATH, one process each in out/work, which becomes out; each
    command's stdout, stderr and exit code go to out/<run id>.log, in order."""
    work = out.parent / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    for run_id, commands in cases.items():
        log = ""
        run_flags = ("--ratings-path", str(REPO / "data" / "mini" / "ratings.csv"),
                     "--movies-path", str(REPO / "data" / "mini" / "movies.csv"),
                     "--out-dir", str(work), "--run-id", run_id, *FLAGS)
        report = ("report", f"{run_id}/report.json")
        for command in (*commands, report):
            args = command if command is report else (*command, *run_flags)
            done = subprocess.run([sys.executable, "-m", "noisegate.cli", *args], cwd=work,
                                  env=env, capture_output=True, text=True)
            log += (f"$ {' '.join(command)}\nexit {done.returncode}\n"
                    f"-- stdout\n{done.stdout}-- stderr\n{done.stderr}")
        (work / f"{run_id}.log").write_text(log)
    shutil.rmtree(out, ignore_errors=True)
    work.rename(out)


def differing(a: Path, b: Path) -> tuple[list[str], int]:
    """One line per file that differs between trees a and b or that only
    one holds, in order of relative path, and how many files were compared."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    lines = []
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            lines.append(f"ONLY IN A: {rel}")
        elif rel not in files_a:
            lines.append(f"ONLY IN B: {rel}")
        elif rel.name == "report.json":
            if not reports_equal(a / rel, b / rel):
                lines.append(f"DIFFERS: {rel}")
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            lines.append(f"DIFFERS: {rel}")
    return lines, len(files_a | files_b)


def main(src_a: Path, src_b: Path, out: Path, cases: dict = CASES) -> int:
    run_cases(src_a, out / "a", cases)
    run_cases(src_b, out / "b", cases)
    lines, n_files = differing(out / "a", out / "b")
    for line in lines:
        print(line)
    n_commands = sum(len(commands) + 1 for commands in cases.values())
    print(f"{n_commands} commands, {n_files} files: {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(*(Path(arg).resolve() for arg in sys.argv[1:])))
