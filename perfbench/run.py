"""Run one workload of the streamcode benchmark and print its metrics.

    python3 perfbench/run.py --workload stream-warm --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout.  It byte-compiles the library,
then runs the workload in a fresh child process (``workloads.py``) with one
BLAS/OpenMP thread, so each workload's peak RSS and caches are its own.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Lines above it give each metric with its unit and sample
count, the result digest and the machine.  The full result, and the spans of
a traced run, are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("stream-warm", "stream-long", "gauss-binned", "sw-sweep")
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine() -> dict:
    """What a result depends on besides the code: cores, CPU and caches."""
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        level = _read(f"{base}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{base}/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        **caches,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="streamcode benchmark, one workload per run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")
    if not (SRC / "streamcode" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # build: byte-compile once, so that no timed import compiles source
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"{tag}.spans.jsonl")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {args.workload} exited with code {proc.returncode}", file=sys.stderr)
        return 3
    res = json.loads(lines[-1])
    res["machine"] = machine()
    res["workload"], res["seed"], res["seconds"] = args.workload, args.seed, args.seconds
    (OUT / f"{tag}.json").write_text(json.dumps(res, indent=1) + "\n")

    for name, m in res["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} "
              f"(samples {res['samples'][name]})")
    print(f"{args.workload} fail_ratio = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} operations failed to decode)")
    print(f"{args.workload} digest {res['digest']}")
    print(f"{args.workload} machine {json.dumps(res['machine'])} "
          f"python {res['python']} numpy {res['numpy']}")
    if res["error"]:
        print(f"{args.workload} CHECK FAILED: {res['error']}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
