#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. `--workload all` runs every workload, each in
a process of its own, so that each reports its own peak memory. The build goes to $CARGO_TARGET_DIR (default
`.bench_build`), build output goes to stderr, and the benchmark's own
stdout passes through, so its last line is the result object. Result and
span files are written to `perfbench/out/`.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["coll_small", "coll_bulk", "apps_paper", "sim_kernels"]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds from, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml", HERE / "Cargo.lock"]
    for top in (ROOT / "crates", HERE / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file() and p.suffix in (".rs", ".toml"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    rev = command_output(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_GIT_REV"] = rev or "none; source sha256 " + source_digest()
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"
    # A fixed mmap threshold stops glibc from raising it after the first
    # large free, which otherwise leaves freed fabric memory in the heap
    # arenas on some runs and not others: peak RSS then reads 220 or
    # 345 MiB on coll_small depending on that race.
    env.setdefault("MALLOC_MMAP_THRESHOLD_", "131072")
    exe = target / "release" / "perfbench"
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args:
        at = args.index("--workload") + 1
        if at < len(args) and args[at] == "all":
            runs = [args[:at] + [w] + args[at + 1 :] for w in WORKLOADS]
    for argv in runs:
        run = subprocess.run([str(exe), *argv, "--out-dir", str(HERE / "out")], env=env)
        if run.returncode != 0:
            return run.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
