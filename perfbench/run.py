"""noisegate benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload run-ml --seed 0 --seconds 36 --trace 0

Generates the workload's inputs from the seed, then runs passes of the
program, one subprocess each, until the next pass would overrun --seconds;
after each pass the inputs are generated again, to time set-up.  Every pass is checked for correct
output.  With --trace 0 the passes are untraced and the end-to-end metrics
are reported; with --trace 1 untraced and traced passes alternate and the
per-layer metrics, plus the tracing overhead, are reported.  The last line
of standard output is one JSON object; details go to perfbench/_work/results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import artifact_bytes, check_pass, digest, noise_quality  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import RUN_ID, WORKLOADS, Workload  # noqa: E402

# The workloads are Python-bound; one BLAS thread keeps a shared 2-core
# machine's timings steady and is recorded with every result.
BLAS_THREADS = 1
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 120
HARD_LIMIT_S = 120  # a run must end within 180 s, set-up included

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ratings_per_s": "1/s",
    "setup_s": "s",
}

# Per-layer metrics.  "<span>_s" is the inclusive time of all spans of that
# name, "<span>_calls" their number; the rest are counts.
SPAN_SECONDS = (
    "dataset.load", "dataset.split", "dataset.filter", "dataset.table_ops",
    "board.nf1", "board.nf2", "board.nf3", "board.nf4",
    "recsys.similarity", "recsys.knn_predict",
    "recsys.mf_train_before", "recsys.mf_train_after", "recsys.topk",
    "ensemble.features", "ensemble.train", "ensemble.classify",
    "signature.detect", "signature.apply",
    "evaluation.serendipity", "evaluation.metrics", "evaluation.cluster",
    "evaluation.deltas", "evaluation.artifacts",
    "pipeline.ingest", "pipeline.split", "pipeline.board", "pipeline.ensemble",
    "pipeline.signature", "pipeline.clean", "pipeline.evaluate",
    "pipeline.artifact_write", "pipeline.artifact_read",
)
SPAN_CALLS = ("dataset.load", "dataset.table_ops", "recsys.knn_predict", "recsys.topk")
COUNTERS = {
    "recsys.similarity_bytes": "bytes",
    "recsys.mf_updates": "count",
    "ensemble.labeled_rows": "count",
    "ensemble.uncertain_rows": "count",
    "signature.hits": "count",
    "signature.ratings_removed": "count",
    "evaluation.universe_users": "count",
}
PER_LAYER = {
    **{f"{s}_s": "s" for s in SPAN_SECONDS},
    "board.consensus_s": "s",
    **{f"{s}_calls": "count" for s in SPAN_CALLS},
    **COUNTERS,
    "board.detect_rows": "count",
    "board.uncertain": "count",
    "board.uncertain_share": "ratio",
    "board.nf3_unpredictable": "count",
    "pipeline.artifact_bytes": "bytes",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_est_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args: list[str], log: Path, timeout: float = CHILD_TIMEOUT_S):
    """Run child.py to completion; return (exit code or None on timeout,
    the child's own resource usage)."""
    with log.open("ab") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
    deadline = time.monotonic() + timeout
    code = None
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                code = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return code, usage


def speed_reference() -> float:
    """Median time of a fixed pure-Python loop: the machine's current speed,
    recorded beside the results (shared machines drift by tens of percent
    over minutes) and never used to adjust them."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_facts() -> dict:
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "speed_ref_s": speed_reference(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def run_setup(w: Workload, seed: int, out: Path, work: Path, log: Path) -> dict:
    """Generate the inputs into out in a fresh process; returns the set-up's
    summary with the digest of the files it wrote."""
    result = work / "setup.json"
    code, _ = spawn(["setup", w.to_json(), str(seed), str(out), str(result)], log)
    if code != 0:
        raise RuntimeError(f"set-up exited {code}; see {log}")
    summary = json.loads(result.read_text())
    summary["digest"] = digest(out, skip=("config.json",))
    return summary


def run_one_pass(w: Workload, work: Path, trace: bool, idx: int, log: Path) -> dict:
    input_dir = work / "input"
    run_dir = input_dir / "out" / RUN_ID
    shutil.rmtree(run_dir, ignore_errors=True)
    result_path = work / f"pass-{idx}.json"
    code, usage = spawn(
        ["pass", w.to_json(), str(input_dir / "config.json"), str(int(trace)), str(result_path)], log
    )
    rec: dict = {"traced": trace, "peak_rss_mb": usage.ru_maxrss / 1024.0, "errors": []}
    if code != 0:
        rec["errors"].append(f"pass process exited {code}")
    else:
        res = json.loads(result_path.read_text())
        rec.update(wall_s=res["wall_s"], cpu_s=res["cpu_s"])
        if res["rc"] != 0:
            rec["errors"].append(f"noisegate exited {res['rc']}")
        else:
            try:
                errors, facts = check_pass(run_dir, res["stdout"])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors, facts = [f"artifacts unreadable: {exc!r}"], {}
            rec["errors"] += errors
            if facts:
                labels = facts.pop("labels")
                rec["facts"] = facts
                rec["ratings_per_s"] = facts["ratings"] / res["wall_s"]
                rec["digest"] = digest(run_dir)
                rec["artifact_bytes"] = artifact_bytes(run_dir)
                if w.noise_rate:
                    q = rec["quality"] = noise_quality(input_dir, run_dir, labels)
                    if q["noise_precision"] < 1.5 * w.noise_rate or q["noise_recall"] < 0.5:
                        rec["errors"].append(f"detection quality below the floor: {q}")
        if trace and "trace" in res:
            tr = res["trace"]
            rec["trace"] = tr
            rec["errors"] += tr["nesting_errors"]
            layer_sum = sum(tr["layer_self_s"].values())
            if abs(layer_sum - tr["root_s"]) > 1e-6 * max(1.0, tr["root_s"]):
                rec["errors"].append(f"layer self times {layer_sum} != pass span {tr['root_s']}")
            if not 0.0 <= res["wall_s"] - tr["root_s"] <= 0.01 + 0.01 * res["wall_s"]:
                rec["errors"].append(f"pass span {tr['root_s']} does not cover wall {res['wall_s']}")
            spans_file = result_path.with_suffix(".spans.json")
            if spans_file.exists():
                rec["spans_file"] = str(spans_file)
    return rec


def layer_metrics(rec: dict) -> dict[str, float]:
    tr = rec["trace"]
    spans, counts = tr["spans"], tr["counts"]
    facts = rec.get("facts", {})
    m: dict[str, float] = {}
    for s in SPAN_SECONDS:
        m[f"{s}_s"] = spans.get(s, {}).get("total_s", 0.0)
    m["board.consensus_s"] = spans.get("board.run_board", {}).get("self_s", 0.0)
    for s in SPAN_CALLS:
        m[f"{s}_calls"] = spans.get(s, {}).get("calls", 0)
    for c in COUNTERS:
        m[c] = counts.get(c, 0)
    m["board.detect_rows"] = facts.get("detect_rows", 0)
    m["board.uncertain"] = facts.get("uncertain", 0)
    m["board.uncertain_share"] = facts.get("uncertain", 0) / max(1, facts.get("detect_rows", 0))
    m["board.nf3_unpredictable"] = facts.get("nf3_unpredictable", 0)
    m["pipeline.artifact_bytes"] = rec.get("artifact_bytes", 0)
    for layer in LAYERS:
        m[f"self.{layer}_s"] = tr["layer_self_s"][layer]
    m["trace.spans"] = tr["span_count"]
    m["trace.overhead_est_s"] = tr["span_count"] * tr["span_cost_s"]
    m["trace.wall_s"] = rec["wall_s"]
    return m


def tail_note(n: int) -> str:
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"p{p} reported"
    return "no tail percentile: fewer than 10 samples beyond any"


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{w.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "stderr.log"
    try:
        first = run_setup(w, seed, work / "input", work, log)
        setup_times = [first["setup_s"]]
        passes: list[dict] = []
        need = 2 * MIN_TRACED_PAIRS if trace else MIN_PASSES
        started = time.perf_counter()
        while True:
            n = len(passes)
            if n and (not trace or n % 2 == 0):
                # A traced run adds an untraced and a traced pass at a time.
                typical = statistics.median(p["elapsed_s"] for p in passes)
                ends = time.perf_counter() - started + typical * (2 if trace else 1)
                if ends > HARD_LIMIT_S or (n >= need and ends > seconds):
                    break
            started_pass = time.perf_counter()
            rec = run_one_pass(w, work, trace and n % 2 == 1, n, log)
            # Set-ups are spread through the run, one after each pass, so that
            # they see the same swings of machine speed as the passes.
            again = run_setup(w, seed, work / "setup-again", work, log)
            shutil.rmtree(work / "setup-again")
            if again["digest"] != first["digest"]:
                raise RuntimeError("the same seed generated different inputs")
            setup_times.append(again["setup_s"])
            rec["elapsed_s"] = time.perf_counter() - started_pass
            passes.append(rec)
        stderr_tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
        spans_file = next(
            (p["spans_file"] for p in reversed(passes) if "spans_file" in p), None
        )
        if spans_file:
            WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
            shutil.copy(spans_file, WORK / "results" / f"{w.name}-seed{seed}.spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = [p["digest"] for p in passes if "digest" in p]
    for p in passes:
        if "digest" in p and p["digest"] != digests[0]:
            p["errors"].append("artifact digest differs from the run's first pass")
    return {
        "setup_s": setup_times,
        "input_ratings": first["ratings"],
        "passes": passes,
        "digest": digests[0] if digests else None,
        "stderr_tail": stderr_tail if any(p["errors"] for p in passes) else "",
    }


def report(w: Workload, seed: int, seconds: float, trace: bool, run: dict, facts: dict) -> dict:
    passes = run["passes"]
    ok = [p for p in passes if not p["errors"]]
    failed = len(passes) - len(ok)
    plain = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    if not plain or (trace and not traced):
        return {}
    out = [
        f"perfbench {w.name} seed={seed} seconds={seconds} trace={int(trace)}",
        "machine: " + " ".join(f"{k}={v}" for k, v in facts.items()),
        f"input: {w.users} users x {w.items} items, {run['input_ratings']} ratings generated, "
        f"{plain[0]['facts']['ratings']} after the activity filter; commands {' '.join(w.commands)}",
    ]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "ratings_per_s": statistics.median(p["ratings_per_s"] for p in plain),
        "setup_s": statistics.median(run["setup_s"]),
    }
    for name, unit in END_TO_END.items():
        n = len(run["setup_s"]) if name == "setup_s" else len(plain)
        what = "set-ups" if name == "setup_s" else "untraced passes"
        out.append(f"  {name:<16} {values[name]:>14.4f} {unit:<6} median of {n} {what}; {tail_note(n)}")
    out.append(f"  {'error_rate':<16} {failed / len(passes):>14.4f} {'ratio':<6} {failed} of {len(passes)} passes failed")
    quality = next((p["quality"] for p in ok if "quality" in p), None)
    if quality:
        for k in ("noise_precision", "noise_recall"):
            out.append(f"  {k:<16} {quality[k]:>14.4f} {'ratio':<6} final Noisy labels vs injection mask")
    out.append(f"artifact digest: {run['digest']}")
    for p in passes:
        for e in p["errors"][:5]:
            out.append(f"FAILED pass: {e}")
    if run["stderr_tail"]:
        out.append("stderr tail:\n" + run["stderr_tail"])

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        layer_values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layer_values["trace.overhead_s"] = layer_values["trace.wall_s"] - values["wall_s"]
        metrics = {k: {"value": layer_values[k], "unit": u} for k, u in PER_LAYER.items()}
        out.append(f"traced passes: {len(traced)}; overhead {layer_values['trace.overhead_s']:+.4f} s "
                   f"on {values['wall_s']:.4f} s untraced")
        out.append("layer self time (median traced pass):")
        for layer in LAYERS:
            v = layer_values[f"self.{layer}_s"]
            out.append(f"  {layer:<11} {v:>9.4f} s  {100 * v / layer_values['trace.wall_s']:5.1f}%")
        for k, u in PER_LAYER.items():
            if not k.startswith("self."):
                out.append(f"  {k:<30} {layer_values[k]:>14.4f} {u}")
    return {
        "lines": out,
        "result": {
            "correct": failed == 0,
            "attempted": len(passes),
            "failed": failed,
            "metrics": metrics,
        },
        "quality": quality,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "noisegate" / "__init__.py").is_file():
        print(f"perfbench: no noisegate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)
    facts = machine_facts()
    try:
        run = measure(w, args.seed, args.seconds, trace)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    rep = report(w, args.seed, args.seconds, trace, run, facts)
    if not rep:
        for p in run["passes"]:
            print(f"perfbench: pass failed: {p['errors'][:3]}", file=sys.stderr)
        print(run["stderr_tail"], file=sys.stderr)
        return 1
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {"workload": w.name, "seed": args.seed, "trace": args.trace, "machine": facts,
              "quality": rep["quality"], **run, **rep["result"]}
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n"
    )
    print("\n".join(rep["lines"]))
    print(json.dumps(rep["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
