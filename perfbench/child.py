"""One benchmark subprocess: generate a workload's inputs, or run one pass.

    python3 perfbench/child.py setup WORKLOAD_JSON SEED INPUT_DIR RESULT_JSON
    python3 perfbench/child.py pass WORKLOAD_JSON CONFIG_JSON TRACE RESULT_JSON

WORKLOAD_JSON is ``Workload.to_json()``.  Each pass gets a process of its
own so that its peak RSS is its own.  The program under test is imported
from the checkout's ``src/``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import Workload, write_inputs  # noqa: E402


def setup(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Import noisegate, then write the inputs; the time covers both."""
    summary = write_inputs(workload, seed, out_dir)
    return {"setup_s": time.perf_counter() - START, **summary}


def run_pass(workload: Workload, config: str, trace: bool) -> tuple[dict, list]:
    """Run the workload's CLI commands in this process, traced or not."""
    import noisegate.cli as cli
    from spans import CLI, ROOT as PASS, Tracer, check_nesting, span_cost, summarize

    tracer = Tracer() if trace else None
    main = cli.main
    if tracer:
        tracer.install()
        main = tracer.wrap(CLI, cli.main)
    stdout: dict[str, str] = {}

    def stages() -> int:
        for command in workload.commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main([command, "--config", config])
            stdout[command] = buf.getvalue()
            if rc != 0:
                return rc
        return 0

    body = tracer.wrap(PASS, stages) if tracer else stages
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rc = body()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    result = {"rc": rc, "wall_s": wall, "cpu_s": cpu, "stdout": stdout}
    if tracer is None:
        return result, []
    tracer.uninstall()
    result["trace"] = {
        **summarize(tracer.spans),
        "span_count": len(tracer.spans),
        "span_cost_s": span_cost(),
        "counts": dict(tracer.counts),
        "nesting_errors": check_nesting(tracer.spans)[:20],
    }
    return result, tracer.spans


def main(argv: list[str]) -> int:
    mode, workload = argv[0], Workload.from_json(argv[1])
    out = Path(argv[4])
    spans: list = []
    if mode == "setup":
        result = setup(workload, int(argv[2]), Path(argv[3]))
    elif mode == "pass":
        result, spans = run_pass(workload, argv[2], argv[3] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out.write_text(json.dumps(result))
    if spans:
        out.with_suffix(".spans.json").write_text(json.dumps(spans))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
