#!/usr/bin/env python3
"""Build the SOFYA benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload align-paper --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that uses the
repository's packages through a replace directive. Everything the build
and the run write goes under the build directory: $CARGO_TARGET_DIR when
set, else .bench_build in the current directory. That holds the Go
caches, the binary, and generated inputs worth keeping across runs,
which are filed under the binary's digest so a changed program never
reads another build's files. Arguments are passed to the binary, which
runs twice: once to generate the inputs, once to measure. The exit
code of the measuring run is returned.
"""

import hashlib
import os
import pathlib
import subprocess
import sys


def digest_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_revision(root, build):
    """The git commit when the tree is a checkout, else a source digest."""
    if (root / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        here = pathlib.Path(dirpath)
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and here / d != build)
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                p = here / name
                h.update(str(p.relative_to(root)).encode())
                h.update(digest_file(p).encode())
    return "src-" + h.hexdigest()[:16]


def main():
    root = pathlib.Path.cwd()
    bench = pathlib.Path(__file__).resolve().parent
    build = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    home = build / "home"
    for d in (build, home, build / "tmp"):
        d.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=str(build / "gocache"),
        GOMODCACHE=str(build / "gomod"),
        GOPATH=str(build / "gopath"),
        GOTMPDIR=str(build / "tmp"),
        TMPDIR=str(build / "tmp"),
        HOME=str(home),
        XDG_CONFIG_HOME=str(home / ".config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOENV="off",
        GOTELEMETRY="off",
    )
    binary = build / "perfbench"
    try:
        r = subprocess.run(["go", "build", "-trimpath", "-o", str(binary), "."],
                           cwd=bench, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run the Go toolchain: {e}", file=sys.stderr)
        return 1
    if r.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return r.returncode
    cache = build / "inputs" / digest_file(binary)[:16]
    args = [str(binary), *sys.argv[1:], "--cache", str(cache)]
    # Inputs are generated (or found) by a process of their own, so the
    # measured process always starts from the same state.
    r = subprocess.run([*args, "--prepare"], cwd=root, env=env)
    if r.returncode != 0:
        return r.returncode
    args += ["--source", source_revision(root, build)]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
