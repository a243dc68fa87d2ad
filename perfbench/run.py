#!/usr/bin/env python3
"""Build and run the ARO-PUF benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Builds the `aro-perfbench` binary from source (release profile, offline)
into `$CARGO_TARGET_DIR` (default `perfbench/target`), prints one
provenance line, then runs the workload. The last stdout line is the
result object; `--trace 0` reports the end-to-end metrics named in
BENCHMARK.json, `--trace 1` the per-layer ones. `--workload all` runs
every workload in its own process, one after another. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "Cargo.toml"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return Path(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", HERE / "target")))


def build():
    """Builds the benchmark; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if result.returncode != 0:
        fail(f"build failed (exit {result.returncode})")
    return target_dir() / "release" / "aro-perfbench"


def source_fingerprint():
    """SHA-256 over the sources the benchmark builds: names the code when
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates", HERE / "src", MANIFEST]
    files = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames[:] = sorted(d for d in dirnames if d != "target")
                files.extend(Path(dirpath) / f for f in sorted(filenames))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip()
    except OSError:
        return ""


def provenance(args, threads):
    commit = ""
    if (ROOT / ".git").exists():
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "-V"]),
        "commit": commit or "unknown (no git metadata)",
        "sources": source_fingerprint(),
        "seed": args.seed,
        "threads": threads,
        "command": " ".join(["python3", "perfbench/run.py"] + sys.argv[1:]),
    }


def run_workload(binary, workload, args, threads, expected_names):
    cmd = [
        str(binary),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--threads", str(threads),
        "--root", str(ROOT),
        "--trace-dir", str(target_dir()),
    ]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"{workload} exited with {result.returncode}")
    try:
        outcome = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload} printed no result line")
    names = set(outcome.get("metrics", {}))
    if names != expected_names:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(
            f"{workload} metrics do not match BENCHMARK.json: "
            f"missing {sorted(expected_names - names)}, extra {sorted(names - expected_names)}"
        )
    return lines


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    threads = max(1, min(2, os.cpu_count() or 1))
    kind = "per_layer" if args.trace else "end_to_end"
    expected_names = {m["name"] for m in spec[kind]}
    binary = build()
    print(json.dumps({"provenance": provenance(args, threads)}))
    sys.stdout.flush()
    if args.workload == "all":
        for workload in workloads:
            lines = run_workload(binary, workload, args, threads, expected_names)
            print("\n".join(lines[:-1]))
        return
    lines = run_workload(binary, args.workload, args, threads, expected_names)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
