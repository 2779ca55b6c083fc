#!/usr/bin/env python3
"""Builds and runs the SeMiTri end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--small]

The first call configures and builds e2ebench/ (which compiles src/) in
Release under .bench_build/e2ebench; later calls only rebuild what
changed. Build output goes to stderr. The benchmark's last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. Scratch files live in .bench_tmp/<workload>-<pid> and are
removed when the run ends (a later run removes those of runs that were
killed); a traced run writes its spans to .bench_out/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
SCRATCH_ROOT = os.path.join(ROOT, ".bench_tmp")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("batch_cars", "live_taxi", "cluster_cars_durable")
# The benchmark binary measures for --seconds plus a few seconds of
# set-up and checks; this bounds a run that hangs.
RUN_TIMEOUT_S = 170


class Interrupted(Exception):
    pass


def remove_stale_scratch():
    """Removes scratch directories whose run (named by pid) has ended."""
    if not os.path.isdir(SCRATCH_ROOT):
        return
    for name in os.listdir(SCRATCH_ROOT):
        pid = name.rsplit("-", 1)[-1]
        try:
            os.kill(int(pid), 0)
            continue  # that run is still going
        except (ValueError, ProcessLookupError):
            pass
        except PermissionError:
            continue
        shutil.rmtree(os.path.join(SCRATCH_ROOT, name), ignore_errors=True)


def _on_signal(signum, frame):
    raise Interrupted(signal.Signals(signum).name)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    # A configure that failed leaves a cache but no build tool file.
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--small", action="store_true",
                        help="small corpus, for the benchmark's own test")
    args = parser.parse_args()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    child = None
    remove_stale_scratch()
    workdir = os.path.join(SCRATCH_ROOT, "%s-%d" % (args.workload,
                                                     os.getpid()))
    try:
        binary = build()
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--workdir", workdir]
        if args.trace == "1":
            os.makedirs(OUT_DIR, exist_ok=True)
            # One file per workload: the latest traced run's spans.
            cmd += ["--spans",
                    os.path.join(OUT_DIR, "spans-%s.jsonl" % args.workload)]
        if args.small:
            cmd.append("--small")
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        if child.returncode != 0:
            sys.stderr.write("e2ebench exited with %d\n" % child.returncode)
            return child.returncode if child.returncode > 0 else 1
        sys.stdout.write(out.decode())
        return 0
    except subprocess.CalledProcessError as e:
        sys.stderr.write("build failed: %s\n" % e)
        return 1
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2ebench did not finish in %d s\n" % RUN_TIMEOUT_S)
        return 1
    except Interrupted as e:
        sys.stderr.write("interrupted by %s\n" % e)
        return 1
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
