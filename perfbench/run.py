"""Benchmark of the qgraph command line over generated inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]

Each workload runs `qgraph inspect | fock | check` from one process, one
command at a time (a closed loop with one caller).  The ladders call
`qgraph.cli.main(argv)` in this process; `frontier` runs every command in a
fresh child process under an address-space cap and a wall-clock cap.  Every
outcome is checked against the closed forms in workloads.py and classified
as solved, refused (a typed QGraphError) or failed.  `failed` in the result
counts commands that did worse than recorded in workloads.py: a ladder case
that failed, or a frontier case below its recorded outcome.  The frontier's
known defects fail as recorded; stderr prints their own tally.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run and the tracing overhead, and the spans are written to
.perfbench_out/.  BENCHMARK.json says why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

BLAS_THREADS = 2  # never more than nproc, see blas_threads()
SETUPS = 5  # set-ups per run; setup_s is their median
CHILD_CAP_MB = 3072  # address space of each child, well under the RAM of an 8 GB machine
LADDER_CAP_MB = 5120  # soft address-space cap of an in-process ladder run
CASE_WALL_S = 15  # wall-clock cap of one frontier command
OUTCOME_RANK = {"failed": 0, "refused": 1, "solved": 2}


def blas_threads() -> int:
    return max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))


def classify(exit_code: int | None, stdout: str, matches: bool) -> str:
    """solved, refused or failed.

    Solved: exit 0 and the report matches the oracle.  Refused: exit 1 with
    the CLI's JSON error naming a QGraphError subclass.  Everything else is
    failed: an exception the CLI did not catch (exit_code None in process,
    exit 1 with a traceback in a child), a kill, an exceeded cap, exit 2, or
    a report that contradicts the oracle.
    """
    if exit_code == 0 and matches:
        return "solved"
    if exit_code == 1:
        lines = stdout.strip().splitlines()
        try:
            doc = json.loads(lines[-1]) if lines else None
        except ValueError:
            doc = None
        if isinstance(doc, dict) and set(doc) == {"error", "message"}:
            import qgraph.errors

            cls = getattr(qgraph.errors, str(doc["error"]), None)
            if isinstance(cls, type) and issubclass(cls, qgraph.errors.QGraphError):
                return "refused"
    return "failed"


def percentile_note(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    note = f"median {statistics.median(samples):.4f} s, n={n}"
    ordered = sorted(samples)
    for p in (99, 95, 90, 75, 50):
        cut = ordered[min(n - 1, int(p / 100 * n))]
        if sum(x > cut for x in ordered) >= 10:
            return note + f", p{p} {cut:.4f} s"
    return note + ", no percentile has 10 samples beyond it"


class Tally:
    """Outcomes of every command run, per case."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.outcomes: dict[str, list[str]] = {}
        self.times: dict[str, list[float]] = {}

    def add(self, case, outcome: str, exit_code, matches: bool, seconds: float) -> None:
        self.attempted += 1
        # a known defect failing as recorded is what frontier measures, not
        # a failure of the run; anything below the recorded outcome is
        if OUTCOME_RANK[outcome] < OUTCOME_RANK[case.expect]:
            self.failed += 1
        if exit_code == 0 and not matches:
            self.wrong += 1
        self.outcomes.setdefault(case.name, []).append(outcome)
        self.times.setdefault(case.name, []).append(seconds)

    def solved(self, cases) -> int:
        return sum(set(self.outcomes.get(c.name, ["failed"])) == {"solved"} for c in cases)

    def count(self, cases, outcome: str) -> int:
        return sum(self.outcomes.get(c.name, ["failed"])[-1] == outcome for c in cases)


class Runner:
    """Runs cases of one workload in this process and tallies them."""

    def __init__(self, workload, files, tally: Tally):
        self.w = workload
        self.files = files
        self.tally = tally

    def run(self, case) -> float:
        import qgraph.cli

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = qgraph.cli.main(case.argv(self.files))
        except (Exception, SystemExit):
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        if self.judge(case, code, out.getvalue(), seconds) == "failed":
            tail = err.getvalue().strip().splitlines()[-1:] or [f"exit {code}"]
            print(f"  {case.name}: failed: {tail[0]}", file=sys.stderr)
        return seconds

    def judge(self, case, code: int | None, stdout: str, seconds: float) -> str:
        """Check one command's output against the oracle and tally it."""
        import workloads

        matches = workloads.verdict_matches(case, self.w.graphs[case.graph], code, stdout)
        outcome = classify(code, stdout, matches)
        self.tally.add(case, outcome, code, matches, seconds)
        return outcome

    def run_pass(self, cases) -> float:
        return sum(self.run(c) for c in cases)


def spawn(args: list[str], out_path: str, wall_s: float) -> tuple[int | None, float, float]:
    """Run perfbench/child.py ARGS with stdout and stderr to files.

    Returns (exit code or None when killed at the wall cap, seconds, peak
    RSS in MB).  The child is always reaped before this returns.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--cap-mb", str(CHILD_CAP_MB)] + args
    with open(out_path, "w") as out, open(out_path + ".err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
    reaped = {}

    def reap():
        reaped["w"] = os.wait4(proc.pid, 0)

    waiter = threading.Thread(target=reap)
    waiter.start()
    waiter.join(wall_s)
    killed = waiter.is_alive()
    if killed:
        proc.kill()
        waiter.join()
    seconds = time.perf_counter() - start
    _, status, usage = reaped["w"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed or proc.returncode < 0 else proc.returncode
    return code, seconds, usage.ru_maxrss / 1024


def offset_parents(spans: list[list], offset: int) -> list[list]:
    """Spans of one child, renumbered to follow `offset` earlier spans."""
    return [[n, s, e, p + offset if p >= 0 else -1, z] for n, s, e, p, z in spans]


class ChildRunner(Runner):
    """Runs each case in a fresh capped child process."""

    def __init__(self, workload, files, tally: Tally, directory: str):
        super().__init__(workload, files, tally)
        self.dir = directory
        self.trace = False  # when set, children record spans into self.spans
        self.rss: dict[str, float] = {}
        self.spans: list[list] = []
        self.seq = 0

    def run(self, case) -> float:
        self.seq += 1
        out_path = os.path.join(self.dir, f"cmd{self.seq}.out")
        trace_path = out_path + ".spans"
        args = (["--trace-out", trace_path] if self.trace else []) + ["cli"]
        code, seconds, rss = spawn(args + case.argv(self.files), out_path, CASE_WALL_S)
        with open(out_path) as fh:
            self.judge(case, code, fh.read(), seconds)
        self.rss[case.name] = max(self.rss.get(case.name, 0.0), rss)
        if self.trace and os.path.exists(trace_path):
            with open(trace_path) as fh:
                self.spans.extend(offset_parents(json.load(fh), len(self.spans)))
        return seconds


def set_up(name: str, seed: int, work: str, tag: str, trace: bool = False, count: int = 1):
    """Import qgraph and build the inputs, `count` times, in fresh children.

    Returns the files of the last set-up, the set-up times, and the spans of
    the last set-up when traced."""
    times, traced, files = [], [], {}
    for i in range(count):
        base = os.path.join(work, f"setup-{tag}{i}")
        args = (["--trace-out", base + ".spans"] if trace else []) + ["setup", name, str(seed), base]
        code, seconds, _ = spawn(args, base + ".out", 120)
        if code != 0:
            with open(base + ".out.err") as fh:
                sys.stderr.write(fh.read())
            raise RuntimeError(f"set-up of {name} ended with exit {code}")
        times.append(seconds)
        with open(os.path.join(base, "files.json")) as fh:
            files = json.load(fh)
        if trace:
            with open(base + ".spans") as fh:
                traced = json.load(fh)
    return files, times, traced


def record(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "child_cap_mb": CHILD_CAP_MB,
        "ladder_cap_mb": LADDER_CAP_MB,
        "machine": platform.machine(),
    }


def measure(runner: Runner, small, large, seconds: float, hooks=None) -> dict[str, list[float]]:
    """Timed rounds until `seconds` have passed, after a discarded warm-up.

    Untraced, a round is one pass over the large cases with a pass over the
    small ones after each large case, so the small samples are spread over
    the whole run as the large ones are; the host's speed drifts by several
    per cent over seconds.  With hooks = (install, uninstall), a round is
    one untraced full pass and one traced full pass.
    """
    runner.run_pass(small + large)  # warm-up, discarded
    t: dict[str, list[float]] = {"small": [], "large": [], "untraced": [], "traced": []}
    deadline = time.perf_counter() + seconds
    while True:
        if hooks is None:
            total = 0.0
            for case in large:
                total += runner.run(case)
                t["small"].append(runner.run_pass(small))
            t["large"].append(total)
        else:
            t["untraced"].append(runner.run_pass(small + large))
            hooks[0]()
            try:
                t["traced"].append(runner.run_pass(small + large))
            finally:
                hooks[1]()
        if time.perf_counter() >= deadline:
            return t


def run_frontier(w, files, tally: Tally, seconds: float, trace: bool, work: str):
    """Controls timed like a ladder, then one pass over the frontier cases."""
    runner = ChildRunner(w, files, tally, os.path.join(work, "cmds"))
    os.makedirs(runner.dir)
    small, large = w.controls[:1], w.controls[1:]
    if trace:
        runner.run_pass(small + large)  # warm-up, discarded
        t = {"untraced": [runner.run_pass(small + large)]}
        runner.trace = True
        t["traced"] = [runner.run_pass(small + large)]
        runner.run_pass(w.cases)
    else:
        t = measure(runner, small, large, seconds)
        runner.run_pass(w.cases)
    print(
        "frontier cases: solved %d, refused %d, failed %d of %d"
        % (*(tally.count(w.cases, o) for o in ("solved", "refused", "failed")), len(w.cases)),
        file=sys.stderr,
    )
    for c in w.cases:
        print(
            f"  {c.name:34s} {tally.outcomes[c.name][-1]:8s} "
            f"{tally.times[c.name][-1]:7.2f} s  peak {runner.rss[c.name]:6.0f} MB",
            file=sys.stderr,
        )
    peak_rss = max(runner.rss[c.name] for c in w.controls)
    return t, peak_rss, [runner.spans] if trace else []


def run_ladder(w, files, tally: Tally, seconds: float, trace: bool):
    """Every case in this process, under a soft address-space cap."""
    import spans

    cap = LADDER_CAP_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
    runner = Runner(w, files, tally)
    small = [c for c in w.cases if not c.large]
    large = [c for c in w.cases if c.large]
    passes: list[list[list]] = []
    hooks = None
    if trace:
        tracer = spans.Tracer()
        undo = []

        def uninstall():
            undo.pop()()
            passes.append(tracer.take())

        hooks = (lambda: undo.append(spans.install(tracer)), uninstall)
    t = measure(runner, small, large, seconds, hooks)
    return t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, passes


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    import spans
    import workloads

    rec = record(seed)
    print("record " + json.dumps(rec), file=sys.stderr)
    files, setup_times, setup_spans = set_up(name, seed, work, "first", trace)
    w = workloads.make_workload(name, seed)
    tally = Tally()
    if name == "frontier":
        t, peak_rss, passes = run_frontier(w, files, tally, seconds, trace, work)
    else:
        t, peak_rss, passes = run_ladder(w, files, tally, seconds, trace)
    if not trace:
        # the other set-ups come after the measurement, to sample the host
        # at another moment than the first
        setup_times += set_up(name, seed, work, "last", count=SETUPS - 1)[1]

    for c in w.cases + w.controls:
        times = tally.times[c.name]
        print(
            f"  {c.name:34s} {tally.outcomes[c.name][-1]:8s} median "
            f"{statistics.median(times):8.4f} s over {len(times)}",
            file=sys.stderr,
        )
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed}
    if not trace:
        for label in ("small", "large"):
            print(f"{label}_s: {percentile_note(t[label])}", file=sys.stderr)
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "small_s": {"value": statistics.median(t["small"]), "unit": "s"},
            "large_s": {"value": statistics.median(t["large"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
            "solved": {"value": tally.solved(w.cases + w.controls), "unit": "count"},
        }
        return result

    # families.* run only while the inputs are built, so they come from the
    # traced set-up; every other layer from the traced passes
    families = {k: v for k, v in spans.aggregate(setup_spans).items() if k.startswith("families.")}
    per_pass = [spans.layer_values({**spans.aggregate(sp), **families}) for sp in passes]
    metrics = {
        name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
        for name, unit, *_ in spans.LAYER_METRICS
    }
    overhead = statistics.median(t["traced"]) - statistics.median(t["untraced"])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{name}-seed{seed}-spans.json"), "w") as fh:
        json.dump({"record": rec, "setup": setup_spans, "passes": passes}, fh)
    result["metrics"] = metrics
    return result


def summary(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process; one table of all metrics."""
    import workloads

    rows = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in rows.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:52s} {m['value']:12.4f} {m['unit']}")
    print(json.dumps(rows))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qgraph", "__init__.py")):
        print(f"qgraph sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads())
    sys.path.insert(0, SRC)
    import qgraph

    if os.path.dirname(os.path.abspath(qgraph.__file__)) != os.path.join(SRC, "qgraph"):
        print(f"qgraph imported from {qgraph.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return summary(args.seed, int(args.seconds), args.trace)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
