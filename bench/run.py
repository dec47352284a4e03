"""softscore benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Set-up (preset files, cohort
simulation, and for ``score_large`` the reference fit) runs in a child
process, several times, and ``setup_s`` is the median.  The timed phase then
runs the workload's CLI commands in this process, in as many whole rounds as
fit in ``--seconds`` (at least one); ``wall_s`` is the median round.  Every output is
checked against ``reference.py``: the last round fully, the others by being
byte-identical to the first.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS/OpenMP thread (no more than nproc), set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SOFTSCORE_LOG"] = "error"

# Set-up repeats at least this often and for at least this long; a short
# set-up is otherwise at the mercy of a few seconds of machine noise.
SETUP_REPEATS, SETUP_MIN_S = 3, 6.0
SETUP_TIMEOUT_S = 150


def load_program():
    """Import softscore from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "softscore", "__init__.py")):
        raise SystemExit(f"error: no softscore package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import softscore
    import softscore.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(softscore.__file__))) != SRC:
        raise SystemExit(f"error: softscore was imported from {softscore.__file__}")
    return softscore


def invoke(softscore, argv) -> int:
    """Run one CLI command in this process; returns its exit code."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            softscore.cli.main.main(args=argv, prog_name="softscore", standalone_mode=False)
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash counts as a failed operation, the run goes on
        traceback.print_exc(file=sys.stderr)
        return 1


def digests(directory) -> dict[str, str]:
    """SHA-256 of every output except manifests, which record wall time."""
    from checks import sha256

    return {os.path.basename(p): sha256(p)
            for p in sorted(glob.glob(os.path.join(directory, "*")))
            if not p.endswith(".manifest.json")}


def dir_bytes(directory) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(directory, "*")))


# ----------------------------------------------------------------------
# set-up, in a child process so that it cannot set the timed phase's peak RSS
# ----------------------------------------------------------------------


def setup_phase(args) -> int:
    """Child process: run the set-up repeatedly, print timings."""
    from workloads import SETUP_DIR, WORKLOADS

    softscore = load_program()
    plan = WORKLOADS[args.workload](args.work, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(softscore)
    times, codes, seen = [], [], []
    setup_dir = os.path.join(args.work, SETUP_DIR)
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        shutil.rmtree(setup_dir, ignore_errors=True)
        start = time.perf_counter()
        codes += [invoke(softscore, argv) for argv in plan.setup]
        times.append(time.perf_counter() - start)
        seen.append(digests(setup_dir))
    print(json.dumps({
        "times": times,
        "ok": all(c == 0 for c in codes),
        "deterministic": all(d == seen[0] for d in seen),
        "stats": tracer.stats if tracer else {},
    }))
    return 0


def run_setup(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--phase", "setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", args.work]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# timed phase
# ----------------------------------------------------------------------


def measure(args, softscore) -> int:
    from workloads import OUT_DIR, WORKLOADS
    import reference as ref

    os.makedirs(args.work, exist_ok=True)
    setup = run_setup(args)
    plan = WORKLOADS[args.workload](args.work, args.seed)
    errors = []
    if not setup["ok"]:
        errors.append("a set-up command failed")
    if not setup["deterministic"]:
        errors.append("set-up repeats produced different files")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(softscore)
    out_dir = os.path.join(args.work, OUT_DIR)
    os.makedirs(out_dir)
    round_walls, round_codes, round_digests = [], [], []
    start = time.perf_counter()
    # Another round starts only if a median round still fits, so that a run
    # of the one-round cv workloads does not grow by a second round.
    while not round_walls or (time.perf_counter() - start
                              + statistics.median(round_walls) <= args.seconds):
        t0 = time.perf_counter()
        if tracer:
            codes = [tracer.call("cli.command", invoke, softscore, c.argv) for c in plan.round]
        else:
            codes = [invoke(softscore, c.argv) for c in plan.round]
        round_walls.append(time.perf_counter() - t0)
        round_codes.append(codes)
        round_digests.append(digests(out_dir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    # Only now, so that the parsed set-up files cannot set the peak above.
    for check in plan.setup_checks:
        errors += check()

    # An operation fails if it exits non-zero, if its output differs from the
    # first round's, or if the last round's output fails its check.
    failed_ops = set()
    for r, codes in enumerate(round_codes):
        for i, code in enumerate(codes):
            if code != 0:
                failed_ops.add((r, i))
                errors.append(f"round {r}: {plan.round[i].name} exited with {code}")
    if any(d != round_digests[0] for d in round_digests):
        errors.append("rounds produced different outputs")
        failed_ops.update((r, i) for r in range(1, len(round_codes)) for i in range(len(plan.round)))
    for i, command in enumerate(plan.round):
        try:
            problems = command.check()
        except Exception as exc:  # a malformed output fails its operation
            traceback.print_exc(file=sys.stderr)
            problems = [f"{command.name}: output unreadable ({exc!r})"]
        if problems:
            errors += problems
            failed_ops.update((r, i) for r in range(len(round_codes)))

    rounds = len(round_walls)
    result = {
        "correct": not errors,
        "attempted": rounds * len(plan.round),
        "failed": len(failed_ops),
    }
    if tracer:
        metrics = tracer.layer_metrics(rounds, dir_bytes(out_dir), setup["stats"])
        tracer.write_spans(os.path.join(
            HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl"))
        result["metrics"] = {k: {"value": metrics[k], "unit": u}
                             for k, u in metric_units("per_layer").items()}
        print(f"traced round wall_s: {statistics.median(round_walls):.4f}", file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setup["times"]),
            "wall_s": statistics.median(round_walls),
            "peak_rss_mb": peak_rss_mb,
        }
        values.update(quality(ref, plan))
        result["metrics"] = {k: {"value": values.get(k), "unit": u}
                             for k, u in metric_units("end_to_end").items()}
    for e in errors[:20]:
        print(f"check: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def quality(ref, plan) -> dict:
    try:
        trace = ref.read_json(plan.fitted)["trace"]
        pooled = ref.read_json(plan.report)["pooled"]
    except (OSError, ValueError, KeyError):
        return {}
    return {
        "final_objective": trace["final_objective"],
        "heldout_auc": pooled["auc"],
        "heldout_youden_j": pooled["youden"]["j"],
        "heldout_prec_rec": pooled["prec_rec"]["value"],
        "heldout_brier": pooled["brier"],
    }


def metric_units(kind) -> dict:
    """Metric names and units of one kind, in BENCHMARK.json's order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("measure", "setup"), default="measure",
                   help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    if args.phase == "setup":
        return setup_phase(args)
    softscore = load_program()  # fails before any file is written
    args.work = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        return measure(args, softscore)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
