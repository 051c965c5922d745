"""convlap benchmark: one seeded workload, checked against the oracles.

    python3 perfbench/run.py --workload polya-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads are defined in ``workloads.py`` and explained in
``README.md``.  With ``--trace 0`` the run measures set-up in fresh
interpreters, then repeats passes of the workload (pass 0 first, then
fresh inputs for pass 1, 2, ...) until ``--seconds`` have been spent,
and prints the end-to-end metrics.  With ``--trace 1`` it runs pass 0
untraced, then again under the span tracer for at most ``--seconds``,
and prints the per-layer metrics.  The last line of output is one JSON
object; the lines before it are for people.  The exit code is 0 when
the run completed, whatever the operations' outcomes, and 1 when the
benchmark could not run.  ``correct`` is false when an op failed in a way
no known failure class explains, when the package's work left the main
thread (other threads, or CPU time the main thread's clock did not see),
or, traced, when an entry point is gone or a layer the workload calls
was never entered.
"""

from __future__ import annotations

import os

# One process and one thread: pin BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cmath  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
# Times are CPU seconds of the main thread, which does all the work:
# the workload is single-threaded and CPU-bound, and on a shared host
# wall time also counts the time the host gives to other tenants (an
# identical 50 ms loop spread 46% in wall time but 7.5% in CPU time on
# the 2-core host the baseline was made on).  The thread clock, because
# while a CPU-time itimer is armed Linux updates the process clock only
# at scheduler ticks (4 ms steps).
CLOCK = time.thread_time
# Runs stop on CPU time, or at this multiple of --seconds in wall time.
WALL_CAP = 4.0
# CPU time of probe()'s loop on the baseline host when quiet.  That host
# also slowed the thread itself, by up to a third, in bursts from a
# fraction of a second to minutes: a fixed 100 ms batch of Polya
# evaluations spread 35% in CPU time over 100 s, and 9% once divided by
# the slowdown a probe run just before it showed.
PROBE_NOMINAL_S = 8.0e-3
# Traced ops run about four times slower, and healthy batches take at
# most a fifth of their deadline untraced; stretching deadlines by three
# keeps the traced pass doing the same work as the untraced one.
TRACE_DEADLINE_SCALE = 3.0
# All of the package's work must show in the main thread's clock: a run
# whose process CPU time (children included) exceeds it by more than
# this share is not correct.
CPU_AGREEMENT = 0.05


def probe() -> float:
    """How slow the host runs this thread now: CPU time of a fixed
    complex-arithmetic loop over its time on the quiet baseline host."""
    t = CLOCK()
    acc, z = 0j, 0.3 + 0.2j
    for k in range(20000):
        acc += cmath.exp(z * (k * 1e-3)) / (z + k)
    return (CLOCK() - t) / PROBE_NOMINAL_S


class DeadlineHit(BaseException):
    """Raised by SIGPROF when a batch has used its deadline in CPU time,
    so that a busy host does not cut a healthy batch; a BaseException so
    that no ``except Exception`` inside the package swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineHit()


def _process_cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def _threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


class Record:
    """Per-op results of one or more passes."""

    def __init__(self):
        # (pass_no, passed, latency_s or None, known, outcome)
        # Latencies and ``work`` are CPU seconds divided by the host's
        # slowdown measured just before each batch; ``cpu`` is undivided,
        # ``process_cpu`` the same span on the process clock.
        self.rows: list[tuple] = []
        self.work = 0.0
        self.cpu = 0.0
        self.process_cpu = 0.0
        self.wall = 0.0
        self.max_threads = 1

    def ops(self, pass_no: int | None = None) -> list[tuple]:
        return [r for r in self.rows if pass_no is None or r[0] == pass_no]


def run_batch(batch, pass_no: int, rec: Record, deadline_scale: float,
              tracer=None) -> None:
    from workloads import Outcome, raised

    rows: list[tuple] = []
    t_op = None
    hook = sys.getprofile()  # the probe must not run under the tracer
    sys.setprofile(None)
    slow = probe()
    sys.setprofile(hook)
    t0, p0, w0 = CLOCK(), _process_cpu(), time.perf_counter()
    try:
        try:
            # The deadline is in undivided CPU time, stretched by the
            # slowdown, so that it cuts at the same amount of work.
            signal.setitimer(signal.ITIMER_PROF,
                             batch.deadline * deadline_scale * slow)
            ctx = batch.build()
            for op, known in zip(batch.ops, batch.known):
                t_op = CLOCK()
                try:
                    out = op(ctx)
                except Exception as exc:  # an op that raises has failed
                    out = Outcome(False, causes=(raised(exc),))
                rows.append((pass_no, out.passed, (CLOCK() - t_op) / slow,
                             known, out))
                t_op = None
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except DeadlineHit:
        now = CLOCK()
        first = len(rows)
        for k in range(first, len(batch.ops)):
            # The op in progress is counted at the time the deadline
            # struck; the ones it cut off count as failed, unmeasured.
            lat = ((now - t_op) / slow if (k == first and t_op is not None)
                   else None)
            rows.append((pass_no, False, lat, batch.known[k],
                         Outcome(False, causes=("deadline",))))
    except Exception as exc:  # construction raised: every op fails
        for k in range(len(rows), len(batch.ops)):
            rows.append((pass_no, False, None, batch.known[k],
                         Outcome(False, causes=(raised(exc),))))
    finally:
        if tracer is not None:
            tracer.close_open()
    spent = CLOCK() - t0
    rec.process_cpu += _process_cpu() - p0
    rec.max_threads = max(rec.max_threads, _threads())
    rec.rows.extend(rows)
    rec.cpu += spent
    rec.work += spent / slow
    rec.wall += time.perf_counter() - w0


def _limit(seconds: float) -> tuple[float, float]:
    return CLOCK() + seconds, time.perf_counter() + WALL_CAP * seconds


def _time_up(limit: tuple[float, float] | None) -> bool:
    return limit is not None and (CLOCK() >= limit[0]
                                  or time.perf_counter() >= limit[1])


def run_pass(batches, pass_no: int, rec: Record, deadline_scale: float = 1.0,
             tracer=None, limit: tuple[float, float] | None = None) -> None:
    for batch in batches:
        if _time_up(limit):
            return
        run_batch(batch, pass_no, rec, deadline_scale, tracer)


def _percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _unexplained(rows) -> list[tuple]:
    from workloads import explained

    return [r for r in rows if not r[1] and not explained(r[3], r[4])]


def problems(rec: Record) -> list[str]:
    """Why a run is not correct: failures no known class explains, and
    work that the main thread's clock did not see."""
    out = []
    bad = _unexplained(rec.rows)
    if bad:
        causes = sorted({c for r in bad for c in r[4].causes})
        out.append(f"{len(bad)} unexplained failures ({', '.join(causes)})")
    if rec.process_cpu > (1.0 + CPU_AGREEMENT) * rec.cpu:
        out.append(f"process CPU {rec.process_cpu:.3f} s against main "
                   f"thread {rec.cpu:.3f} s")
    if rec.max_threads > 1:
        out.append(f"{rec.max_threads} threads after a batch")
    return out


def correctness(rec: Record) -> dict:
    """Pass-0 figures: identical in every run with the same seed."""
    rows = rec.ops(0)
    failed = [r for r in rows if not r[1]]
    devs = [r[4].dev for r in rows if r[1] and r[4].dev is not None]
    unexplained = set(map(id, _unexplained(rows)))
    by_class: dict[str, int] = {}
    for r in failed:
        key = "unexplained" if id(r) in unexplained else r[3]
        by_class[key] = by_class.get(key, 0) + 1
    worst = max(devs, default=0.0)
    return {
        "attempted": len(rows),
        "failed": len(failed),
        "fail_share": len(failed) / len(rows),
        "failed_by_class": dict(sorted(by_class.items())),
        "oracle_dev_log10": math.log10(worst) if worst > 0 else -math.inf,
        "oracle_dev_samples": len(devs),
        "dishonest_estimates": sum(1 for r in rows if r[4].dishonest),
        "deadline_hits": sum(1 for r in rows if r[2] is not None
                             and "deadline" in r[4].causes),
    }


def setup_probe(workload: str, seed: int) -> None:
    """Child process: import, generate pass 0, build its first batch's
    object, then report ready with the CPU time used since start."""
    import workloads

    workdir = Path(tempfile.mkdtemp(dir=_workroot()))
    try:
        batches = workloads.make_pass(workload, seed, 0, ROOT, workdir)
        batches[0].build()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    used = CLOCK()
    slow = statistics.median(probe() for _ in range(5))
    print(f"ready {used / slow!r}", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=str(ROOT), check=True, text=True)
        word, _, value = proc.stdout.strip().partition(" ")
        if word != "ready":
            raise RuntimeError("set-up probe failed")
        times.append(float(value))
    return times


def _workroot() -> Path:
    path = ROOT / ".perfbench-work"
    path.mkdir(exist_ok=True)
    return path


def machine() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path):
    import workloads

    probes = measure_setup(workload, seed)
    rec = Record()
    limit = _limit(seconds)
    pass_no = 0
    while pass_no == 0 or not _time_up(limit):
        batches = workloads.make_pass(workload, seed, pass_no, ROOT, workdir)
        run_pass(batches, pass_no, rec, limit=None if pass_no == 0 else limit)
        pass_no += 1
    lat = [r[2] for r in rec.rows if r[2] is not None]
    passed = sum(1 for r in rec.rows if r[1])
    metrics = {
        "ops_per_s": (passed / rec.work, "1/s"),
        "op_p50_ms": (1e3 * _percentile(lat, 50), "ms"),
        "op_p90_ms": (1e3 * _percentile(lat, 90), "ms"),
        "setup_s": (statistics.median(probes), "s"),
    }
    info = {"passes": pass_no, "ops_run": len(rec.rows),
            "latency_samples": len(lat), "cpu_s": rec.cpu,
            "process_cpu_s": rec.process_cpu, "work_s": rec.work,
            "wall_s": rec.wall, "ops_per_wall_s": passed / rec.wall,
            "setup_probes_s": probes,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return metrics, info, rec, problems(rec)


def _mean(total: float, count: int, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def per_layer(workload: str, seed: int, seconds: float, workdir: Path):
    import tracing
    import workloads

    plain = Record()
    run_pass(workloads.make_pass(workload, seed, 0, ROOT, workdir), 0, plain)
    tracer = tracing.Tracer()
    traced = Record()
    batches = workloads.make_pass(workload, seed, 0, ROOT, workdir)
    limit = _limit(seconds)
    tracer.install()
    try:
        run_pass(batches, 0, traced, TRACE_DEADLINE_SCALE, tracer, limit)
    finally:
        tracer.remove()
    both = [(a[2], b[2]) for a, b in zip(plain.rows, traced.rows)
            if a[1] and b[1]]
    overhead = (sum(b for _, b in both) / sum(a for a, _ in both)
                if both else 0.0)

    s = tracer.summary()
    names, modules = s["names"], s["modules"]

    def get(name, key="time"):
        return names.get(name, {}).get(key, 0)

    def count(name):
        return get(name, "count")

    n_ops = len(traced.rows)
    n_polya, n_meril = count("transforms.polya.eval"), count(
        "transforms.meril.eval")
    outcomes = [r[4] for r in traced.rows]
    steps = [o.steps for o in outcomes if o.steps is not None]
    conj_done = sum(1 for row in tracer.spans
                    if row[0] == "legendre.conjugate" and row[5] > 0)
    m = {
        "transforms.polya.eval_ms": (_mean(get("transforms.polya.eval"),
                                           n_polya, 1e3), "ms"),
        "transforms.datum_calls_per_eval": (
            _mean(get("transforms.polya.eval", "datum"), n_polya), "count"),
        "contour.integrate.calls_per_eval": (
            _mean(count("contour.integrate"), n_polya + n_meril), "count"),
        "contour.integrate.self_share": (
            _mean(get("contour.integrate", "self"), traced.cpu), "share"),
        "transforms.polya_transform.ms": (
            _mean(get("transforms.polya_transform"),
                  count("transforms.polya_transform"), 1e3), "ms"),
        "transforms.meril_transform.ms": (
            _mean(get("transforms.meril_transform"),
                  count("transforms.meril_transform"), 1e3), "ms"),
        "transforms.meril.eval_ms": (_mean(get("transforms.meril.eval"),
                                           n_meril, 1e3), "ms"),
        "transforms.meril.ladder_steps": (_mean(sum(steps), len(steps)),
                                          "count"),
        "transforms.meril.loose_converged": (
            sum(1 for o in outcomes if o.loose), "count"),
    }
    for name, unit, scale in (
            ("transforms.residue_oracle", "us", 1e6),
            ("transforms.log_abs", "us", 1e6),
            ("convexgeom.support_function", "us", 1e6),
            ("lp.maximize_min_affine", "us", 1e6),
            ("legendre.conjugate_at", "us", 1e6),
            ("legendre.conjugate", "ms", 1e3),
            ("dolbeault.area_laplace", "ms", 1e3),
            ("growth.growth_ratio_sup", "ms", 1e3),
            ("cli.parse_scenario", "ms", 1e3)):
        m[f"{name}.{unit}"] = (_mean(get(name), count(name), scale), unit)
    m["convexgeom.signed_distance.calls"] = (
        _mean(count("convexgeom.signed_distance"), n_ops), "count/op")
    m["lp.maximize_min_affine.calls"] = (
        _mean(count("lp.maximize_min_affine"), n_ops), "count/op")
    m["legendre.conjugate.out_pieces"] = (
        _mean(sum(row[5] for row in tracer.spans
                  if row[0] == "legendre.conjugate"), conj_done), "count")
    m["cli.run_scenario.self_ms"] = (
        _mean(get("cli.run_scenario", "self"), count("cli.run_scenario"),
              1e3), "ms")
    for mod in tracing.MODULES:
        m[f"{mod}.self_s"] = (modules[mod], "s")
    m["trace.overhead"] = (overhead, "ratio")
    info = {"spans": len(tracer.spans), "ops_run": n_ops,
            "traced_cpu_s": traced.cpu, "untraced_cpu_s": plain.cpu,
            "ops_in_overhead": len(both)}
    issues = (["untraced: " + i for i in problems(plain)]
              + ["traced: " + i for i in problems(traced)])
    if tracer.missing:
        issues.append("entry points not found: " + ", ".join(tracer.missing))
    unseen = [n for n in tracing.CALLED[workload]
              if n not in tracer.missing and count(n) == 0]
    if unseen:
        issues.append("never entered: " + ", ".join(unseen))
    return m, info, plain, issues


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import convlap from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 1
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    if not (ROOT / "scenarios").is_dir():
        print(f"error: no scenarios/ directory under {ROOT}", file=sys.stderr)
        return 1
    signal.signal(signal.SIGPROF, _on_alarm)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    workdir = Path(tempfile.mkdtemp(dir=_workroot()))
    try:
        if args.trace:
            metrics, info, rec, issues = per_layer(
                args.workload, args.seed, args.seconds, workdir)
        else:
            metrics, info, rec, issues = end_to_end(
                args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            _workroot().rmdir()
        except OSError:
            pass

    check = correctness(rec)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    print("run " + json.dumps(info, sort_keys=True))
    print("pass-0 correctness " + json.dumps(check, sort_keys=True))
    for issue in issues:
        print("not correct: " + issue)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {unit}")
    result = {
        "correct": not issues,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
