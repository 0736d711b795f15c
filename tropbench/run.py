"""tropcoh benchmark: one workload, one seed, one JSON result on the last stdout line.

Run from the repository root:

    python3 tropbench/run.py --workload curve_build --seed 1 --seconds 15 --trace 0
    python3 tropbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics of untraced jobs.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.
See tropbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import JobClock, loop_slowdown, start_slowdown

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("cli_cold", "curve_build", "twist_count", "smooth_check")
SETUP_REPS = 3

END_TO_END_UNITS = {
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# metric -> unit; README.md says how each is computed and what it should move
PER_LAYER = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "io.parse_input_s": "s",
    "io.report_bytes_s": "s",
    "io.report_bytes": "bytes",
    "ext_chains.verify_a2d_configuration_s": "s",
    "ext_chains.checks": "count",
    "svg.render_svg_s": "s",
    "polytope.validate_s": "s",
    "polytope.edges_s": "s",
    "polytope.triangles": "count",
    "tropical.tropical_curve_s": "s",
    "tropical.bounded_regions_s": "s",
    "tropical.regions": "count",
    "fan.fan_at_vertex_s": "s",
    "bundles.phi_map_s": "s",
    "bundles.canonical_KC_s": "s",
    "bundles.phi_cells": "count",
    "bundles.phi_nonzeros": "count",
    "bundles.phi_density": "ratio",
    "lattice.integer_kernel_s": "s",
    "lattice.kernel_rank": "count",
    "spheres.theta_from_twisting_s": "s",
    "winding.winding_table_s": "s",
    "winding.box_points": "count",
    "winding.entries": "count",
    "winding.useful_ratio": "ratio",
    "cohomology.cohomology_dims_s": "s",
    "cohomology.verify_winding_theorem_s": "s",
    "cohomology.h_total": "count",
    "smoothing.check_hessian_definiteness_s": "s",
    "smoothing.hessian_s": "s",
    "smoothing.grad_s": "s",
    "smoothing.mollify_eval_s": "s",
    "smoothing.hessian_samples": "count",
    "smoothing.grad_samples": "count",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}
RATIOS = {
    "bundles.phi_density": ("bundles.phi_nonzeros", "bundles.phi_cells"),
    "winding.useful_ratio": ("winding.entries", "winding.box_points"),
}

IMPORT_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import tropcoh.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def preflight() -> None:
    if sys.flags.optimize:
        fail("refusing to run under python -O: it strips the asserts that are part of tropcoh's cost")
    if not (SRC / "tropcoh" / "__init__.py").is_file():
        fail(f"no tropcoh package under {SRC}; run from the repository root")
    if not (ROOT / "fixtures" / "p2.json").is_file():
        fail(f"no fixtures under {ROOT}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import tropcoh

    if Path(tropcoh.__file__).resolve().parent != (SRC / "tropcoh").resolve():
        fail(f"imported tropcoh from {tropcoh.__file__}, not from {SRC}")


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "jsonschema": importlib.metadata.version("jsonschema"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "optimize": sys.flags.optimize,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def child_seconds(argv, env) -> tuple[float, bytes]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=120
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:2]} exited with {proc.returncode}: {proc.stderr.decode()[-400:]}")
    return wall, proc.stdout


def setup(wl, seed: int, env) -> tuple[list, list[float], list[float]]:
    """Import the package in a fresh interpreter and generate the inputs, SETUP_REPS times.

    Each repetition's time is scaled to the reference host speed by interpreter
    starts, the bulk of its work (hostspeed.py).
    """
    totals, imports = [], []
    cases = None
    last = None
    for _ in range(SETUP_REPS):
        clock = JobClock(start_slowdown, interior=False, before=last)
        clock.start()
        _, out = child_seconds(["-c", IMPORT_SNIPPET], env)
        t0 = time.perf_counter()
        cases = wl.cases(seed)
        end = time.perf_counter()
        clock.finish(end)
        last = clock.samples[-1]
        totals.append(clock.scale(float(out) + end - t0))
        imports.append(float(out))
    return cases, totals, imports


@dataclass(frozen=True)
class Job:
    case: int  # index into the round
    seconds: float  # wall time as measured, without the time spent sampling the host
    scaled: float  # ``seconds`` scaled to the reference host (hostspeed.py)
    slowdowns: tuple[float, ...]  # the host's slowdown sampled around and during the job
    traced: bool
    job_id: object
    failed: bool


class Runner:
    def __init__(self, wl, seed: int, off, on):
        from workloads import clear_caches

        self.wl = wl
        self.seed = seed
        self.clear_caches = clear_caches
        self.off = off
        self.on = on
        self.next_id = 0

    def run_job(self, case, traced: bool, job_id=None, clock=None):
        """One timed job; returns (output, error, seconds, job id).

        A ``JobClock`` samples the host around and during the job; the seconds
        returned do not count the time its samples took.
        """
        if self.wl.in_process:
            self.clear_caches()
        # the job's collections see only its own objects, as in a fresh process
        gc.collect()
        gc.freeze()
        if job_id is None:
            job_id = self.next_id
            self.next_id += 1
        t = self.on if traced else self.off
        t.job = job_id
        if clock:
            clock.start()
        t0 = time.perf_counter()
        try:
            out = t.call("job", self.wl.job, t, case)
            err = None
        except Exception as exc:  # a job that raises counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        if clock:
            clock.stop()
        end = time.perf_counter()
        dt = end - t0
        if clock:
            dt -= clock.finish(end)
        gc.unfreeze()
        return out, err, dt, job_id

    def probe(self, case, out, job_id) -> list[str]:
        self.on.job = f"p{job_id}"
        try:
            self.wl.probe(self.on, case, out)
        except Exception as exc:
            return [f"probe raised {type(exc).__name__}: {exc}"]
        return []


def self_tests(runner: Runner, case) -> tuple[list[str], dict]:
    """Repeat one job to show caches are cleared, and feed the gate wrong answers."""
    from workloads import cache_stats, in_process_main

    wl = runner.wl
    problems = []
    if wl.in_process:
        replay = lambda: wl.job(runner.off, case)  # noqa: E731
    else:
        argv = wl.probe_cases(runner.seed)[0].argv
        replay = lambda: in_process_main(argv)  # noqa: E731
    stats = []
    for clear in (True, True, False):
        if clear:
            runner.clear_caches()
        before = cache_stats()
        replay()
        after = cache_stats()
        stats.append({k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after})
    touched = any(m for _, m in stats[0].values())
    if stats[1] != stats[0]:
        problems.append(f"a repeated job after cache_clear() hit a cache: {stats[0]} then {stats[1]}")
    if touched and sum(m for _, m in stats[2].values()) >= sum(m for _, m in stats[1].values()):
        problems.append("the cache self-test cannot see a cache hit when caches are not cleared")
    out, err, _, _ = runner.run_job(case, False, job_id="selftest")
    if err:
        return problems + [f"self-test job raised {err}"], {}
    if wl.gate(case, out, runner.seed):
        problems.append("gate rejects the correct self-test output")
    caught = {}
    for label, wrong in wl.corruptions(case, out).items():
        caught[label] = bool(wl.gate(case, wrong, runner.seed))
        if not caught[label]:
            problems.append(f"gate accepted a deliberately wrong answer: {label}")
    record = {
        "caches": sorted(stats[0]),
        "first_job_cache_use": stats[0],
        "repeat_after_clear": stats[1],
        "repeat_without_clear": stats[2],
        "caches_touched": touched,
        "corruptions_caught": caught,
    }
    return problems, record


def timed_phase(runner: Runner, cases, seconds: float, tracing: bool):
    """Whole rounds over the cases until the next round would pass ``seconds``."""
    wl = runner.wl
    slowdown = loop_slowdown if wl.in_process else start_slowdown
    jobs: list[Job] = []
    first = {}  # case index -> (signature, problems, sizes, fact)
    problems_seen = []
    start = time.perf_counter()
    rounds = 0
    last = None  # the previous job's last host sample
    while True:
        traced = tracing and rounds % 2 == 1
        for i, case in enumerate(cases):
            # traced jobs feed the unscaled per-layer spans, which interior samples would stretch
            # a child start is costly, so cli_cold jobs share a sample with the job before
            clock = JobClock(slowdown, interior=wl.in_process and not traced, before=None if wl.in_process else last)
            out, err, dt, job_id = runner.run_job(case, traced, clock=clock)
            last = clock.samples[-1]
            if err:
                problems = [err]
            elif i not in first:
                problems = wl.gate(case, out, runner.seed * 1000 + i)
                first[i] = (wl.signature(out), problems, wl.sizes(case, out), wl.fact(out))
            elif wl.signature(out) == first[i][0]:
                problems = first[i][1]
            else:
                problems = ["output differs from the first run of the same input"]
            if traced and out is not None:
                problems = problems + runner.probe(case, out, job_id)
            if problems:
                problems_seen.append({"case": wl.label(case), "problems": problems[:3]})
            jobs.append(Job(i, dt, clock.scale(dt), tuple(clock.samples), traced, job_id, bool(problems)))
        rounds += 1
        elapsed = time.perf_counter() - start
        need = 2 if tracing else wl.min_rounds
        if rounds >= need and elapsed * (rounds + 1) / rounds > seconds:
            break
    return jobs, first, problems_seen, rounds


def end_to_end(wl, jobs, setup_totals) -> tuple[dict, dict]:
    """Order statistics of the untraced jobs' times, scaled to the reference host speed.

    Each job counts at its input's median scaled time over the run's rounds,
    once for every round it ran, so a single job caught by a burst of host
    noise the calibration missed does not move the percentiles.
    """
    from spans import median, percentile

    plain = [j for j in jobs if not j.traced]
    by_case: dict[int, list[float]] = {}
    for j in plain:
        by_case.setdefault(j.case, []).append(j.scaled)
    typical = {case: median(ts) for case, ts in by_case.items()}
    times = [typical[j.case] for j in plain]
    if wl.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "job_p50_s": median(times),
        "job_tail_s": percentile(times, wl.tail_pct),
        "jobs_per_s": len(times) / sum(times),
        "setup_s": median(setup_totals),
        "peak_rss_mb": rss / 1024,
    }
    raw = [j.seconds for j in plain]
    extra = {
        "tail_percentile": wl.tail_pct,
        "jobs_beyond_tail": sum(1 for t in times if t > values["job_tail_s"]),
        "samples": len(times),
        "unscaled": {
            "job_p50_s": median(raw),
            "job_tail_s": percentile(raw, wl.tail_pct),
            "jobs_per_s": len(raw) / sum(raw),
        },
    }
    return values, extra


def per_layer(runner: Runner, wl, jobs, own_ids, import_times) -> tuple[dict, dict]:
    """Layer metrics from the workload's own traced jobs, else from the layer probe."""
    from spans import Span, layer_per_job, median

    on = runner.on
    for k, secs in enumerate(import_times):
        on.spans.append(Span("cli.import", 0.0, secs, None, f"c{k}"))
    interp = []
    for k in range(3):
        wall, _ = child_seconds(["-c", "pass"], None)
        interp.append(wall)
        on.spans.append(Span("cli.interp", 0.0, wall, None, f"c{k}"))

    probe_ids = {f"p{j}" for j in own_ids} | {f"c{k}" for k in range(len(import_times))}
    own = set(own_ids) | probe_ids
    layer_ids = {s.job for s in on.spans if isinstance(s.job, str) and s.job.startswith(("L", "pL"))} | {
        f"c{k}" for k in range(len(import_times))
    }
    own_layers = layer_per_job(on.spans, own)
    probe_layers = layer_per_job(on.spans, layer_ids)

    def counts(ids):
        out = {}
        for job, name, value in on.counts:
            if job in ids:
                out.setdefault(name, []).append(value)
        return out

    def measure(name, layers, c):
        if name in RATIOS:
            num, den = RATIOS[name]
            return sum(c[num]) / sum(c[den]) if c.get(den) else None
        if name.endswith("_s"):
            return median(layers[name[:-2]]) if layers.get(name[:-2]) else None
        return sum(c[name]) / len(c[name]) if c.get(name) else None

    sources = (("workload", own_layers, counts(own)), ("layer_probe", probe_layers, counts(layer_ids)))
    values, source = {}, {}
    for name in PER_LAYER:
        for label, layers, c in sources:
            value = None if name.startswith("trace.") else measure(name, layers, c)
            if value is not None:
                values[name], source[name] = value, label
                break

    traced_ids = set(own_ids)
    roots = [s for s in on.spans if s.name == "job" and s.job in traced_ids]
    wall = {s.job: s.end - s.start for s in roots}
    if wl.in_process:
        children = sum(s.end - s.start for s in on.spans if s.name != "job" and s.job in traced_ids and s.parent is not None)
        values["trace.coverage_frac"] = children / sum(wall.values())
    else:
        mains = {s.job: s.end - s.start for s in on.spans if s.name == "cli.main"}
        explained = sum(median(interp) + median(import_times) + mains[f"p{j}"] for j in wall if f"p{j}" in mains)
        values["trace.coverage_frac"] = explained / sum(wall[j] for j in wall if f"p{j}" in mains)
    source["trace.coverage_frac"] = "workload"

    traced = [j.seconds for j in jobs if j.traced]
    plain = [j.seconds for j in jobs if not j.traced]
    values["trace.overhead_frac"] = (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1
    source["trace.overhead_frac"] = "workload"
    missing = [name for name in PER_LAYER if name not in values]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    return values, source


def layer_probe(runner: Runner, current: str) -> list[str]:
    """Reach the layers the current workload does not, with one small job per other workload."""
    from workloads import WORKLOADS

    problems = []
    for name, cls in WORKLOADS.items():
        if name == current:
            continue
        wl = cls()
        sub = Runner(wl, runner.seed, runner.off, runner.on)
        for k, case in enumerate(wl.probe_cases(runner.seed)):
            out, err, _, job_id = sub.run_job(case, True, job_id=f"L{name}{k}")
            if err:
                problems.append(f"layer probe {name}: {err}")
                continue
            problems += sub.probe(case, out, job_id)
    return problems


def run_one(args) -> int:
    preflight()
    sys.path.insert(0, str(BENCH))
    from spans import Tracer, median
    from workloads import WORKLOADS, child_env, tropcoh_caches

    wl = WORKLOADS[args.workload]()
    env = child_env()
    cases, setup_totals, import_times = setup(wl, args.seed, env)
    runner = Runner(wl, args.seed, Tracer(False), Tracer(True))

    problems, selftest = self_tests(runner, cases[0])
    jobs, first, job_problems, rounds = timed_phase(runner, cases, args.seconds, bool(args.trace))
    problems += wl.vacuity([first[i][3] for i in sorted(first)])
    sizes = []
    for i, case in enumerate(cases):
        if i in first:
            t = [j.scaled for j in jobs if j.case == i and not j.traced]
            sizes.append({"case": wl.label(case), **first[i][2], "median_s": median(t) if t else None})

    detail = {
        "environment": environment(args),
        "rounds": rounds,
        "cases_per_round": len(cases),
        "fail_frac": sum(j.failed for j in jobs) / len(jobs),
        "setup_s_samples": setup_totals,
        "import_s_samples": import_times,
        "caches_cleared": [name for name, _ in tropcoh_caches()],
        "selftest": selftest,
        "selftest_problems": problems,
        "job_problems": job_problems[:20],
        "sizes": sizes,
        "known_defects": getattr(wl, "known_defects", dict)(),
        "jobs": [[j.case, j.seconds, j.scaled, j.traced, j.slowdowns] for j in jobs],
    }
    if args.trace:
        problems += layer_probe(runner, wl.name)
        own_ids = [j.job_id for j in jobs if j.traced]
        values, source = per_layer(runner, wl, jobs, own_ids, import_times)
        detail["metric_source"] = source
        units = PER_LAYER
    else:
        values, extra = end_to_end(wl, jobs, setup_totals)
        detail.update(extra)
        units = END_TO_END_UNITS

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    record = dict(detail, metrics=values)
    if args.trace:
        record["trace"] = runner.on.to_json()
    (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, default=str) + "\n")

    for name, value in values.items():
        print(f"{wl.name} {name} = {value:.6g} {units[name]}")
    keys = ("environment", "rounds", "fail_frac", "tail_percentile", "samples", "selftest_problems", "job_problems",
            "known_defects")
    print(json.dumps({k: detail[k] for k in keys if k in detail}, default=str))
    failed = sum(j.failed for j in jobs)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    ok = True
    for name in WORKLOAD_NAMES:
        argv = [__file__, "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE)
        lines = proc.stdout.decode().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              f"fail_frac={result['failed'] / result['attempted']:.4g}")
        for metric, v in result["metrics"].items():
            print(f"  {metric} = {v['value']:.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        preflight()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
