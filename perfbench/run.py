#!/usr/bin/env python3
"""Boot-latency and guest-MIPS benchmark for the functional VMM.

Builds the harness (perfbench/CMakeLists.txt, which compiles the VMM
from ../src) and runs one workload:

    python3 perfbench/run.py --workload cold_boot --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. Build output goes to stderr, so
the last line of stdout is the harness's JSON result. The build tree
is .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench).
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_boot", "warm_boot", "steady", "interp_heavy")
# The default workload seed. 20260807 is held out for confirming
# claimed gains (see README.md).
DEFAULT_SEED = 1


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build() -> Path:
    """Configure (once) and build the harness; return the binary."""
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "-j", "4"],
                   check=True, stdout=sys.stderr)
    return bdir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default="",
                    help="span file of a traced run (default: "
                         "spans-<workload>.json in the build tree)")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    # Relative to the checkout root where possible: the image host's
    # socket lives here, and socket paths are short.
    scratch = os.path.relpath(build_dir(), ROOT)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", scratch]
    if args.spans_out:
        cmd += ["--spans-out", os.path.abspath(args.spans_out)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
