"""Builds the simulator tools and the in-process driver from source."""
import os
import subprocess
from pathlib import Path

TARGETS = ("emx_perfbench", "emx_run", "emx_sweep", "emx_serve")


class BuildError(Exception):
    pass


def build_dir(root):
    """Build tree inside the checkout: $CARGO_TARGET_DIR when the caller
    sets it (relative paths are taken from the checkout root), else
    .bench_build."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (Path(root) / target).resolve()


def build(root):
    """Configures (once) and builds TARGETS; returns {name: path}.
    Output goes to <build>/build.log; a failure raises BuildError with
    the log's tail."""
    root = Path(root)
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise BuildError("no simulator source tree at %s (expected CMakeLists.txt and src/)" % root)
    out = build_dir(root)
    cmake_dir = out / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench" / "harness"), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", str(len(os.sched_getaffinity(0))),
                  "--target", *TARGETS])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                raise BuildError("build failed: %s\n%s" % (" ".join(cmd), "\n".join(tail)))
    exes = {"emx_perfbench": cmake_dir / "emx_perfbench"}
    for tool in TARGETS[1:]:
        exes[tool] = cmake_dir / "emx" / "tools" / tool
    for name, path in exes.items():
        if not os.access(path, os.X_OK):
            raise BuildError("built tree lacks %s at %s" % (name, path))
    return {k: str(v) for k, v in exes.items()}


def build_type(root):
    cache = build_dir(root) / "cmake" / "CMakeCache.txt"
    try:
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"
