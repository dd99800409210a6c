#!/usr/bin/env python3
"""Runs one workload of the fcpn benchmark and prints its result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload pipeline|serve_cold|serve_hot \
        --seed N --seconds S --trace 0|1 [--tamper]

Builds the release `fcpn-served` daemon and the `perfbench` package from source into
`$CARGO_TARGET_DIR` (default `.bench_build`), prints one `host {...}` line that stamps
the result with the host and the source revision, then runs the workload. The last
line of standard output is the result JSON. Exits non-zero, without a result, when the
repository sources are missing or a build or the run fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("pipeline", "serve_cold", "serve_hot")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for args in (
        ["--bin", "fcpn-served"],
        ["--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
        if done.returncode != 0:
            fail(f"cargo build {' '.join(args)} failed")


def revision():
    """The git commit, or a digest of the sources when the tree is not a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if done.returncode == 0 and done.stdout.strip():
            return "git:" + done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("src", "crates", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "source-sha256:" + digest.hexdigest()


def host_stamp():
    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": rustc,
        "revision": revision(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args()

    needed = [
        ROOT / "Cargo.toml",
        ROOT / "src" / "bin" / "fcpn-served.rs",
        ROOT / "crates" / "serve" / "Cargo.toml",
    ]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        fail(f"repository sources missing: {', '.join(missing)}", code=2)

    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(target)
    print("host " + json.dumps(host_stamp()), flush=True)

    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", str(target / "release" / "fcpn-served"),
        "--inputs", str(ROOT / "perfbench" / "inputs"),
        "--trace-dir", str(target / "perfbench"),
    ]
    command += ["--tamper"] * args.tamper
    # Its own process group, so a run that overstays is stopped with its daemon.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"the run failed with exit code {code}")


if __name__ == "__main__":
    main()
