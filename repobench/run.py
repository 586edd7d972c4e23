#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 repobench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the measuring process and the
noc_synth binary from source with dune, runs one workload, measures the
peak RSS of a fresh noc_synth child where the workload asks for one, and
prints the report lines followed by one JSON result line:
{"correct", "attempted", "failed", "metrics"}.  Exits non-zero without a
result line when it cannot build or run.  See repobench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

WORKLOADS = ("sweep-d128", "edit-session", "daemon-mix")
MAIN = "_build/default/repobench/main.exe"
NOC_SYNTH = "_build/default/bin/noc_synth.exe"
WORKROOT = ".repobench_work"


def die(msg):
    print(f"repobench: {msg}", file=sys.stderr)
    sys.exit(2)


def flambda():
    try:
        out = subprocess.run(["ocamlfind", "ocamlopt", "-config"],
                             capture_output=True, text=True, timeout=60).stdout
        for line in out.splitlines():
            if line.startswith("flambda:"):
                return line.split(":", 1)[1].strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def commit():
    """The git revision when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "repobench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def peak_rss_mb(argv):
    """Peak RSS of one fresh child, from the kernel's accounting at exit."""
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin", "repobench/dune"):
        if not os.path.exists(need):
            die(f"run from the root of a checkout: {need} is missing")
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    try:
        # no shared dune cache: the build writes inside the checkout only
        build = subprocess.run(
            ["dune", "build", "--root", ".", "repobench/main.exe", "bin/noc_synth.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=870,
            env={**os.environ, "DUNE_CACHE": "disabled"})
    except subprocess.TimeoutExpired:
        die("build timed out")
    if build.returncode != 0:
        die("build failed")

    workdir = os.path.join(WORKROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    argv = [MAIN, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir, "--noc-synth", NOC_SYNTH,
            "--flambda", flambda(), "--commit", commit()]
    # its own process group, so a timeout also stops any daemon it started
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        die("measuring process timed out")
    try:
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            die(f"measuring process exited with {proc.returncode}")
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        metrics = result["metrics"]
        attempted, failed, correct = result["attempted"], result["failed"], result["correct"]
        if args.trace == 0 and result["rss_argvs"]:
            samples = []
            for child in result["rss_argvs"]:
                code, mb = peak_rss_mb(child)
                attempted += 1
                if code != 0:
                    failed += 1
                    correct = False
                samples.append(mb)
            rss = statistics.median(samples)
            metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
            print(f"{args.workload} peak_rss_mb = {rss:.6g} MB (median of fresh "
                  f"`noc_synth {result['rss_argvs'][0][1]}` children: "
                  f"{', '.join(f'{s:.1f}' for s in samples)}) | {result['provenance']}")
    finally:
        spans = os.path.join(workdir, "spans.jsonl")
        if os.path.exists(spans):
            kept = os.path.join(WORKROOT, f"spans-{args.workload}-{args.seed}.jsonl")
            os.replace(spans, kept)
            print(f"{args.workload} spans written to {kept}", file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKROOT)
        except OSError:
            pass
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
