"""Run one cgfusion benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign-small --seed 0 --seconds 30 --trace 0

Workloads: ``campaign-small``, ``certify-tall`` and ``cli-wide`` (see
``perfbench/NOTES.md``).  The library is imported from ``src/`` of the
checkout; without it the run stops with exit code 2 and prints no result.

Standard output ends with one JSON object holding ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the ``end_to_end`` ones named in ``BENCHMARK.json``; with ``--trace 1``
they are the ``per_layer`` ones, from a run that wraps library calls in
spans.  The lines before it give every figure measured, the environment and
the failures by reason and report.  A full record of the run is written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: BLAS threads for the harness and every command it starts (at most nproc).
BLAS_THREADS = "1"
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"
WORKLOADS = ("campaign-small", "certify-tall", "cli-wide")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library(root: Path):
    """Put the checkout's ``src`` first on the path; refuse any other cgfusion."""
    src = root / "src"
    if not (src / "cgfusion" / "__init__.py").is_file():
        raise ImportError(f"perfbench: no cgfusion sources under {src}")
    sys.path.insert(0, str(src))
    import cgfusion

    if Path(cgfusion.__file__).resolve().parent != (src / "cgfusion").resolve():
        raise ImportError(f"perfbench: imported cgfusion from {cgfusion.__file__}, not {src}")


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path = ROOT,
        tiny: bool = False) -> dict:
    """Measure one workload and return the full record of the run."""
    import harness
    import workloads

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    work_dir = root / WORK_DIR / f"{workload_name}-{os.getpid()}"
    workload = workloads.make(workload_name, seed, work_dir, tiny=tiny, in_process=trace)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    try:
        if trace:
            record = harness.measure_traced(workload, seconds, out_dir / f"{stem}-spans.json")
        else:
            record = harness.measure(workload, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record.update(workload=workload_name, seed=seed, seconds=seconds, trace=int(trace),
                  environment=harness.environment())
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    record["record_path"] = str(Path(OUT_DIR) / f"{stem}.json")
    return record


def result_line(record: dict, spec: dict) -> dict:
    """The last output line: the metrics ``BENCHMARK.json`` names, with units.

    A per-layer metric of a function that the run never called is 0.
    """
    group = "per_layer" if record["trace"] else "end_to_end"
    measured = record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec[group]
        },
    }


def print_summary(record: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(ops_per_s="1/s", op_p50_ms="ms", op_tail_ms="ms", error_rate="1",
                 cmd_read_p50_ms="ms", cmd_write_p50_ms="ms")
    env = record["environment"]
    print(f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']:g} "
          f"trace={record['trace']}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"blas_threads {env['blas_threads']}, nproc {env['nproc']}, "
          f"running on cpu {','.join(map(str, env['cpus_used']))}")
    sizes = ", ".join(f"{k} {v:g}" for k, v in record["sizes_mean"].items())
    print(f"problem size (mean per operation): {sizes}")
    metrics = record["metrics"]
    names = list(metrics)
    if record["trace"]:
        names = sorted(name for name in metrics if metrics[name] or name in units)
        print(f"  ({len(metrics) - len(names)} figures of uncalled functions omitted; "
              "the record has all)")
    for name in names:
        note = ""
        if name == "op_tail_ms":
            t = record["tail"]
            note = f"  (p{t['percentile']:g}, {t['beyond']} of {t['samples']} samples beyond)"
        unit = units.get(name) or ("count/op" if name.endswith(".calls") else "s/op")
        print(f"  {name} = {metrics[name]:.6g} {unit}{note}")
    if not record["trace"] and "op_tail_ms" not in metrics:
        print(f"  op_tail_ms omitted: {len(record['latencies_s'])} samples leave fewer "
              "than ten beyond any percentile")
    ref = record["host_ref_ms"]
    print(f"host.ref_ms median {ref['median']:.4g} min {ref['min']:.4g} max {ref['max']:.4g} "
          f"({ref['samples']} samples)")
    verdict = "PASS" if record["correct"] else "FAIL"
    print(f"output check: {verdict} ({record['rejected_by_check']} operations rejected by the "
          f"benchmark's checks; {record['failed']} of {record['attempted']} operations failed "
          f"in all, over {record['executions']} executions)")
    if record["unstable"]:
        print(f"warning: {record['unstable']} operations did not fail the same way on every "
              "execution")
    for title, key in (("reason", "failures_by_reason"), ("report", "failures_by_report")):
        if record[key]:
            print(f"failures by {title}: " + ", ".join(f"{k} {v}" for k, v in record[key].items()))
    print(f"record: {record['record_path']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # The CLI reads its default tolerance from here; runs must not depend on it.
    os.environ.pop("CGFUSION_TOL", None)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    try:
        import_library(ROOT)
    except ImportError as err:
        print(err, file=sys.stderr)
        return 2
    import harness

    harness.pin_to_one_cpu()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(record, spec)
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
