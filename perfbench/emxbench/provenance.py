"""Where a result came from: host, build, source and benchmark version.
Results from different hosts or builds must never be compared by
accident, so every output carries this block."""
import hashlib
import os
import platform
import subprocess
from pathlib import Path

from . import build

BENCH_VERSION = "1.0.0"

# Seeds (choosing-metrics §6.3): develop and tune against DEV_SEED; a
# later performance claim must also hold on HELDOUT_SEED, which is not
# used while a change is written.
DEV_SEED = 1
HELDOUT_SEED = 7919

# Inputs of the measured program, hashed when the checkout carries no
# git metadata.
SOURCE_ROOTS = ("CMakeLists.txt", "src", "tools", "perfbench")


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root):
    if not (Path(root) / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root):
    """SHA-256 over the relative path and bytes of every source file."""
    root = Path(root)
    h = hashlib.sha256()
    for top in SOURCE_ROOTS:
        base = root / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
        for f in files:
            h.update(str(f.relative_to(root)).encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def collect(root, workload, seed, trace):
    return {
        "bench_version": BENCH_VERSION,
        "workload": workload,
        "seed": seed,
        "seed_role": {DEV_SEED: "dev", HELDOUT_SEED: "held-out"}.get(seed, "other"),
        "trace": trace,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "kernel": platform.release(),
        },
        "build_type": build.build_type(root),
        "commit": git_commit(root),
        "source_digest": source_digest(root),
    }
