"""Benchmark entry point.

    python3 perfbench/run.py --workload tok-b --seed 1 --seconds 20 --trace 0

Run from the root of a probir checkout.  It generates the workload's inputs
from the seed under ``.perfbench_work/``, runs the workload in a child
process on the checkout's own ``src/``, checks the rankings and run files,
prints each metric by name and unit, and ends with one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload in turn and prints
their metrics, without the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, gen  # noqa: E402
from perfbench.workload import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"


def _reference_digest(workload: str, seed: int) -> str | None:
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))["run_sha256"]
    return table.get(workload, {}).get(str(seed))


def _declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    table = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in table["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, int]:
    """Run one workload; returns (result JSON object, exit code)."""
    src = ROOT / "src"
    if not (src / "probir" / "cli.py").is_file():
        print(f"error: no probir sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen.write_inputs(workload, seed, work)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT)]),
                   PYTHONHASHSEED="0")
        spec = json.dumps({"workload": workload, "seconds": seconds, "trace": trace})
        child = subprocess.Popen([sys.executable, "-m", "perfbench.workload", spec],
                                 cwd=work, env=env, stdout=subprocess.DEVNULL)
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: {workload} did not finish in {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, 1
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if code != 0:
            print(f"error: {workload} child exited with {code}", file=sys.stderr)
            return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, 1
        raw = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(raw["problems"])
    digests = raw["digests"]
    if len(digests) != 1:
        problems.append(f"rounds wrote {len(digests)} different run files")
    expected = _reference_digest(workload, seed)
    if expected is not None and digests != [expected]:
        problems.append(f"run file sha256 {digests[0]} differs from reference {expected}")
    for problem in problems:
        print(f"{workload}: FAILED CHECK: {problem}", file=sys.stderr)
    correct = not problems and raw["failed"] == 0
    if expected is None:
        verdict = "no reference for this seed"
    else:
        verdict = "matches reference" if digests == [expected] else "differs from reference"
    print(f"{workload}: run sha256 {digests[0]} ({verdict})")
    print(f"{workload}: error_rate {raw['failed'] / raw['attempted']:.6g} ratio "
          f"({raw['failed']} failed of {raw['attempted']} operations)")

    if trace:
        values = raw["layer"]
        if raw["missing"]:
            print(f"{workload}: not traced (absent in this probir): "
                  f"{', '.join(raw['missing'])}", file=sys.stderr)
        context = []
    else:
        values, context = checks.summarise(raw)
    units = _declared_units(trace)
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics {sorted(values)} differ from the "
                           f"declared ones {sorted(units)}")
    for line in context:
        print(f"{workload}: {line}")
    for name, unit in units.items():
        print(f"{workload}: {name} {values[name]:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [run_workload(name, args.seed, args.seconds, bool(args.trace))[1]
                 for name in WORKLOADS]
        return max(codes)
    started = time.perf_counter()
    result, code = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload}: wall {time.perf_counter() - started:.1f} s")
    print(json.dumps(result, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
