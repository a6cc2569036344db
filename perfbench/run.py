"""Benchmark of the image quality-filter pipeline and the query library.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 12 --trace 0

Workloads: ``flagship`` and ``recrawl`` (perfbench/images.py), ``queries``
(perfbench/query_workload.py). One client drives the workload in a closed
loop: the next iteration starts once the previous one has finished and its
outputs have been checked (untimed). Ray gets as many CPUs as ``nproc``
reports. A run builds its inputs from ``--seed``, starts Ray and runs one
warm-up iteration (together the set-up, timed once), then iterates for
``--seconds``; an iteration that raises, times out or fails its check
counts in ``failed``, and the run is then not ``correct``.

The last line of standard output is one JSON object. ``--trace 0`` gives
the end-to-end metrics and ``--trace 1`` the per-layer metrics of a traced
run, both as named in BENCHMARK.json. A traced run alternates untraced and
traced iterations, then replays the worker-side layers in-process, and
writes its spans to ``.perfbench_run/spans/``. Everything else a run writes
goes under ``.perfbench_run/`` and is deleted when it ends.

The command measures in a child process and supervises it: it is the
subreaper of every process the child starts, Ray's included, and after the
child has ended, however it ended, it stops each one still running and
waits for it. A run whose child dies without a result exits non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from checks import CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
ITER_TIMEOUT_S = 60
DEADLINE_S = 170  # the whole process, set-up included
MIN_ITERS = 3
OBJECT_STORE_BYTES = 512 * 1024 ** 2
SOCKET_PATH_MAX = 107  # AF_UNIX path limit, which Ray checks its sockets against
SESSION_SUFFIX = 64  # longest "/session_<date>_<pid>/sockets/plasma_store"
PR_SET_CHILD_SUBREAPER = 36
STOP_GRACE_S = 3  # SIGTERM, then SIGKILL after this long
STOP_WAIT_S = 8


class IterationTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise IterationTimeout(f"iteration exceeded {ITER_TIMEOUT_S} s")


def ncpus() -> int:
    """What ``nproc`` reports: the CPUs this process may run on, capped by
    ``OMP_NUM_THREADS`` when that is set."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def become_subreaper() -> None:
    """Have the processes this one starts, and theirs, reparented to this
    process when their parent exits (as Ray's workers are when their raylet
    stops), so ``stop_children`` can find and wait for every one."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print(f"perfbench: prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(ctypes.get_errno())}",
              file=sys.stderr)


def children() -> list[int]:
    me, kids = os.getpid(), []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:  # field 4, ppid
            kids.append(int(d))
    return kids


def stop_children() -> None:
    """Stop every process still running under this one and wait until each
    has ended: SIGTERM, then SIGKILL after STOP_GRACE_S. Orphans reparented
    here (see ``become_subreaper``) are stopped in turn."""
    t0, termed = time.monotonic(), set()
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        kids = children()
        waited = time.monotonic() - t0
        if not kids:
            return
        if waited > STOP_WAIT_S:
            print(f"perfbench: processes {kids} did not end", file=sys.stderr)
            return
        for pid in kids:
            if waited > STOP_GRACE_S or pid not in termed:
                termed.add(pid)
                try:
                    os.kill(pid, signal.SIGKILL if waited > STOP_GRACE_S else signal.SIGTERM)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def ray_temp_dir(work: str) -> str:
    """Ray's temp directory (sessions, sockets, spill): under the run
    directory when the checkout path leaves room for Ray's socket paths,
    else a short directory of /tmp."""
    for tmp in (os.path.join(work, "ray"), os.path.join(RUN_DIR, "r")):
        if len(tmp) + SESSION_SUFFIX <= SOCKET_PATH_MAX:
            os.makedirs(tmp)
            return tmp
    return tempfile.mkdtemp(prefix="pb", dir="/tmp")


def start_ray(ray_tmp: str) -> float:
    """Start a new local Ray session; returns its start-up time."""
    import ray

    t0 = time.perf_counter()
    # address="local": always a new session, never one left by another run
    ray.init(address="local", _temp_dir=ray_tmp, num_cpus=ncpus(),
             object_store_memory=OBJECT_STORE_BYTES, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    init_s = time.perf_counter() - t0
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return init_s


def reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Loop:
    """The closed loop: times each iteration, then checks it untimed."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.times: dict[bool, list[float]] = {False: [], True: []}  # by traced
        self.scores: list[float] = []  # the checks' output_f1, timed iterations
        self.traced_iters: list[int] = []
        self.broken = False  # an iteration raised
        self.timed_out = False

    def once(self, traced: bool = False, timed: bool = True) -> None:
        """One iteration. One that raises or times out is failed and
        untimed; one whose outputs fail their check is failed, but its
        time and check score still count."""
        self.attempted += 1
        self.wl.reset()
        gc.collect()
        try:
            signal.setitimer(signal.ITIMER_REAL, ITER_TIMEOUT_S)
            try:
                t0 = time.perf_counter()
                if traced:
                    self.tracer.iteration = self.attempted
                    with self.tracer.patch(self.wl.trace_targets()), \
                            self.tracer.span(self.wl.span_name):
                        res = self.wl.run(self.tracer)
                else:
                    res = self.wl.run()
                dt = time.perf_counter() - t0
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self.tracer.iteration = None
            score = self.wl.check(res)
        except CheckFailed as e:
            self._fail(e)
            score = e.score
        except Exception as e:  # noqa: BLE001 — any failure counts against the run
            self._fail(e)
            self.broken = True
            self.timed_out |= isinstance(e, IterationTimeout)
            return
        if timed:
            self.times[traced].append(dt)
            self.scores.append(score)
            if traced:
                self.traced_iters.append(self.attempted)

    def _fail(self, e: Exception) -> None:
        self.failed += 1
        print(f"perfbench: iteration {self.attempted} failed: {type(e).__name__}: {e}",
              file=sys.stderr)

    def measure(self, seconds: float, started: float, traced: bool) -> None:
        """Iterate for ``seconds``, and at least MIN_ITERS times of each
        kind; stop early after a timeout or when the process deadline
        comes near."""
        kinds = (False, True) if traced else (False,)
        t_end = time.perf_counter() + seconds
        longest = 0.0
        while not self.timed_out:
            for kind in kinds:
                t0 = time.perf_counter()
                self.once(traced=kind)
                longest = max(longest, time.perf_counter() - t0)
            enough = min(len(self.times[k]) for k in kinds) >= MIN_ITERS
            if (enough or self.failed >= MIN_ITERS) and time.perf_counter() >= t_end:
                break
            if time.perf_counter() - started + 2 * longest + 20 > DEADLINE_S:
                break


def run(args, work: str, ray_tmp: str) -> dict | None:
    from images import FlagshipWorkload, RecrawlWorkload
    from query_workload import QueriesWorkload
    from tracing import Tracer

    workloads = {"flagship": FlagshipWorkload, "recrawl": RecrawlWorkload,
                 "queries": QueriesWorkload}
    wl = workloads[args.workload](work, args.seed)
    started = time.perf_counter()
    # set-up is what the program does before its steady state, timed once
    # as it happens: building the inputs (the labels and oracle answers the
    # checks need are computed outside it), Ray's start-up, the workload's
    # preparation and one warm-up iteration (worker imports, caches)
    setup_s = wl.build()
    setup_s += start_ray(ray_tmp)
    tracer = Tracer()
    loop = Loop(wl, tracer)
    t0 = time.perf_counter()
    wl.prepare()
    loop.once(timed=False)
    setup_s += time.perf_counter() - t0
    reset_peak_rss()
    if not loop.broken:
        loop.measure(args.seconds, started, traced=bool(args.trace))
    rss_mb = peak_rss_mb()
    walls = loop.times[False]
    print(f"{args.workload} seed={args.seed} cpus={ncpus()} setup_s={setup_s:.3f}: "
          f"{loop.failed}/{loop.attempted} iterations failed; untraced wall_s: "
          + " ".join(f"{t:.3f}" for t in walls), file=sys.stderr)
    if not walls or (args.trace and not loop.times[True]):
        return None
    wall_s = statistics.median(walls)
    if args.trace:
        run_s = statistics.median(loop.times[True])
        values = wl.layer_metrics(tracer, loop.traced_iters, run_s, wall_s)
        values["trace.overhead_frac"] = run_s / wall_s - 1
        tracer.dump(os.path.join(RUN_DIR, "spans", f"{args.workload}-seed{args.seed}.json"))
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s, "rows_per_s": wl.rows / wall_s,
                  "output_f1": statistics.median(loop.scores), "driver_rss_mb": rss_mb}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in spec}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # a layer the workload never calls did no work: it reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec}
    print(f"{args.workload}: " + ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                                           for k, v in metrics.items()))
    return {"correct": loop.failed == 0, "attempted": loop.attempted,
            "failed": loop.failed, "metrics": metrics}


def measure_run(args) -> int:
    """The benchmark itself, in the child process ``supervise`` starts."""
    import ray

    sys.path[:0] = [ROOT, os.path.join(ROOT, "tools"), HERE]
    signal.signal(signal.SIGALRM, _alarm)
    try:
        result = run(args, os.environ["PERFBENCH_WORK"], os.environ["PERFBENCH_RAY_TMP"])
    finally:
        if ray.is_initialized():
            ray.shutdown()
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def supervise(args) -> int:
    """Run the benchmark in a child process and, however that ends (a
    result, an error, a crash of Ray's core, the deadline, SIGTERM), stop
    every process left under this one and wait until each has ended. The
    child's standard output, with the result line, is this process's."""
    become_subreaper()
    if os.path.isdir(RUN_DIR):  # left behind by a run that was killed
        for d in os.listdir(RUN_DIR):
            if d != "spans":
                shutil.rmtree(os.path.join(RUN_DIR, d), ignore_errors=True)
    work = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"))
    ray_tmp = ray_temp_dir(work)
    env = dict(os.environ, PERFBENCH_WORK=work, PERFBENCH_RAY_TMP=ray_tmp,
               TMPDIR=os.path.join(work, "tmp"),
               # Ray workers start from the raylet's environment, not sys.path
               PYTHONPATH=os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p))
    env.pop("RAY_ADDRESS", None)
    stopped = []
    try:
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                                env=env)

        def on_term(signum, frame):
            stopped.append(signum)
            proc.kill()

        signal.signal(signal.SIGTERM, on_term)
        try:
            rc = proc.wait(timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: still running after {DEADLINE_S} s, stopping", file=sys.stderr)
            rc = 3
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    if stopped:
        return 128 + stopped[0]
    if rc < 0:
        print(f"perfbench: the benchmark process died of signal {-rc}", file=sys.stderr)
        return 128 - rc
    return rc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["flagship", "recrawl", "queries"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    for need in ("BENCHMARK.json", "data_quality_ray/__init__.py", "__ray_entry__.py",
                 "tools/check_oracle.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}", file=sys.stderr)
            return 2
    if "PERFBENCH_WORK" in os.environ:
        return measure_run(args)
    return supervise(args)


if __name__ == "__main__":
    sys.exit(main())
