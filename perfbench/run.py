#!/usr/bin/env python3
"""Build and run the perfbench simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the simulator from src/) in Release mode
under .bench_build/perfbench at the repository root, then runs the binary
with the same arguments. Build output goes to stderr; the binary's stdout is
passed through, so its last line is the JSON result. Exits 2 when any
STAGTM_* variable is set, and nonzero without a result when the simulator
sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_JOBS = "4"


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no simulator sources at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", BUILD_JOBS], check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def main() -> int:
    knobs = sorted(k for k in os.environ if k.startswith("STAGTM_"))
    if knobs:
        print(f"perfbench: refusing to run with {', '.join(knobs)} set",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([str(binary), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
