"""Wall-clock benchmark of the Know Your Phish reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Workloads are ``scan``, ``verify`` and ``serve`` (see
``perfbench/workloads.py``).  The seed draws the inputs from a fixed
world (see ``perfbench/world.py``).  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``, the timings in
reference-speed time (see ``perfbench/bench.py``), each followed by its
raw wall-clock value.  ``--trace 1`` prints the per-layer metrics of a
separate traced run.

Standard output ends with two JSON lines: the run's provenance and
details (verdict digest, tail percentile, raw wall-clock figures,
layer table), then the result object ``{"correct", "attempted",
"failed", "metrics"}``.  The exit code is 0 when every output matched
its reference, 1 when one did not (the result is still printed) and 2
when the run could not start.

The harness's own smoke tests run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("scan", "verify", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _git(*args: str) -> str | None:
    """Output of a git command in the root, or None outside a repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_digest() -> str:
    """SHA-256 over the program and benchmark sources, by relative path.

    Identifies the code measured even where no git metadata exists.
    """
    sha = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            sha.update(str(path.relative_to(ROOT)).encode("utf-8"))
            sha.update(path.read_bytes())
    return sha.hexdigest()


def provenance(seed: int) -> dict:
    """Where and how this result was produced."""
    import numpy

    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
        "command": list(getattr(sys, "orig_argv", [sys.executable] + sys.argv)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.bench import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    info = result.pop("info")
    info["provenance"] = provenance(args.seed)
    info["trace"] = args.trace
    raw = info.get("raw_wall_clock", {})
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:>34}  {value:.6g} {unit}")
        if name in raw:
            print(f"{'(wall clock)':>34}  {raw[name]['value']:.6g} "
                  f"{raw[name]['unit']}")
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
