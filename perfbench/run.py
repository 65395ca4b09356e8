"""Benchmark entry point.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; the library is imported from ./src.  One
process, one thread.  The run

1. imports the library afresh and builds the workload's seeded inputs,
   emptying every lru_cache afterwards, SETUP_REPEATS times; setup_s is
   the median, each set-up rescaled to the nominal machine speed by the
   reference timings before and after it (see speed.py);
2. repeats the workload's task list from empty caches until --seconds
   have passed (at least MIN_PASSES times), timing the reference between
   passes and after every SEGMENT_S of work inside a pass; run_s is the
   mean pass time, each segment rescaled by the references around it;
3. checks the first pass's outputs against the oracles in workloads.py,
   and every later pass's outputs against the first pass's; an op fails
   if it failed in any pass, and success_rate is 1 - failed ops / ops;
4. prints one JSON line: end-to-end metrics with --trace 0, per-layer
   metrics with --trace 1 (see README.md for both lists).

Details of the run (pass times, cache statistics per site, failed ops with
their messages, spans) are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pkgutil
import random
import resource
import statistics
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 9
MIN_PASSES = 3
# seconds of work inside a pass between two reference timings; the
# machine's speed changes within a pass of a second or more
SEGMENT_S = 0.4
CRITERIA = range(1, 12)


class Failed:
    """Output slot of an op that raised."""

    __slots__ = ("message",)

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def digest(x):
    """A value comparable with == that stands for a library output: the
    object itself where its class defines equality, else its slots."""
    if isinstance(x, (list, tuple)):
        return tuple(digest(v) for v in x)
    if type(x).__eq__ is object.__eq__ and hasattr(type(x), "__slots__"):
        return (type(x).__name__,) + tuple(digest(getattr(x, s)) for s in type(x).__slots__)
    return x


def import_library():
    """Import every commsol module from ./src; exit 1 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "commsol", "__init__.py")):
        sys.exit(f"perfbench: no library sources at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import commsol

    if os.path.dirname(os.path.abspath(commsol.__file__)) != os.path.join(SRC, "commsol"):
        sys.exit(f"perfbench: commsol was imported from {commsol.__file__}, not {SRC}")
    return [
        importlib.import_module(f"commsol.{info.name}")
        for info in pkgutil.iter_modules(commsol.__path__)
    ]


def set_up(workload, seed):
    """Import the library and the workloads afresh, build the seeded inputs
    and empty every cache.  Returns (modules, cache sites, tasks, workloads
    module); tasks is None for an unknown workload."""
    for name in [n for n in sys.modules if n.split(".")[0] in ("commsol", "workloads", "oracles")]:
        del sys.modules[name]
    modules = import_library()
    wl = importlib.import_module("workloads")
    sites = cache_sites(modules)
    build = wl.WORKLOADS.get(workload)
    tasks = build(random.Random(seed)) if build else None
    clear_caches(sites)
    return modules, sites, tasks, wl


def cache_sites(modules):
    """Every lru_cache wrapper at module or class level, by qualified name."""
    sites = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                sites[f"{short}.{name}"] = obj
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    if hasattr(member, "cache_clear") and hasattr(member, "cache_info"):
                        sites[f"{short}.{name}.{attr}"] = member
    return sites


def clear_caches(sites):
    for site in sites.values():
        site.cache_clear()


def cache_stats(sites):
    return {name: site.cache_info()._asdict() for name, site in sites.items()}


def run_pass(tasks, refs, works):
    """Run every task once.  After each SEGMENT_S of work inside the pass,
    time the reference and start a new segment, so that works[k] is the
    work done between refs[k] and refs[k + 1]; the pass's last segment is
    left for the caller to close."""
    outs = []
    work = 0.0
    for i, task in enumerate(tasks):
        t0 = time.perf_counter()
        try:
            outs.append(task.run())
        except Exception as exc:  # an op failure is counted, not fatal
            outs.append(Failed(exc))
        work += time.perf_counter() - t0
        if work >= SEGMENT_S and i < len(tasks) - 1:
            works.append(work)
            refs.append(speed.reference_s())
            work = 0.0
    works.append(work)
    return outs


class Verifier:
    """Checks pass outputs and keeps the failure log.  Counts are per op,
    not per pass: an op that fails in any pass is one failed op."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.reference = None
        self.attempted = len(tasks)
        self.failed_ops = set()
        self.failures = []

    def check(self, pass_no, outs):
        if self.reference is None:
            self.reference = [digest(o) for o in outs]
            for i, (task, out) in enumerate(zip(self.tasks, outs)):
                if isinstance(out, Failed):
                    self.fail(pass_no, i, task.kind, out.message)
                    continue
                try:
                    problem = task.check(out)
                except Exception as exc:  # a check that cannot run fails the op
                    problem = f"check raised {type(exc).__name__}: {exc}"
                if problem:
                    self.fail(pass_no, i, task.kind, problem)
            return
        for i, (task, out) in enumerate(zip(self.tasks, outs)):
            if isinstance(out, Failed):
                self.fail(pass_no, i, task.kind, out.message)
            elif digest(out) != self.reference[i]:
                self.fail(pass_no, i, task.kind, "output differs from the first pass")

    def fail(self, pass_no, index, kind, message):
        self.failed_ops.add(index)
        self.failures.append({"pass": pass_no, "op": index, "kind": kind, "message": message})


def reference_s(sites):
    """One machine-speed reference timing, taken with every cache empty and
    the garbage collected, so that what the library keeps alive does not
    change it."""
    clear_caches(sites)
    gc.collect()
    return speed.reference_s()


def measure(tasks, sites, verifier, seconds, on_pass_start=None, on_pass_end=None):
    """Run passes from empty caches for `seconds`.  Returns each pass's
    work time, raw and rescaled to the nominal machine speed segment by
    segment, the reference times, and the cache statistics each pass
    ended with."""
    refs = [reference_s(sites)]
    works = []
    ends = []
    stats = []
    start = time.perf_counter()
    while len(ends) < MIN_PASSES or time.perf_counter() - start < seconds:
        if on_pass_start:
            on_pass_start()
        outs = run_pass(tasks, refs, works)
        stats.append(cache_stats(sites))
        if on_pass_end:
            on_pass_end(stats[-1])
        verifier.check(len(ends) + 1, outs)
        refs.append(reference_s(sites))
        ends.append(len(works))
    scaled = [speed.rescale(w, refs[k], refs[k + 1]) for k, w in enumerate(works)]
    bounds = list(zip([0] + ends, ends))
    raw = [sum(works[a:b]) for a, b in bounds]
    rescaled = [sum(scaled[a:b]) for a, b in bounds]
    return raw, rescaled, refs, stats


def per_layer(tracer, stats):
    """Per-layer metrics of one traced pass."""
    calls, incl, selfs, ctr = tracer.calls, tracer.incl, tracer.self_s, tracer.counters

    def hit_ratio(site):
        s = stats.get(site, {"hits": 0, "misses": 0})
        total = s["hits"] + s["misses"]
        return s["hits"] / total if total else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "freewords.concat_calls": (calls["freewords.concat"], "count"),
        "freewords.self_s": (selfs["freewords"], "s"),
        "stallings.enumerate_s": (incl["stallings.enumerate_subgroups"], "s"),
        "stallings.enumerate_yield": (
            ratio(ctr["enumerate_emitted"], ctr["enumerate_candidates"]), "ratio"),
        "stallings.fold_calls": (
            calls["stallings.from_generators"] + calls["stallings.fold_with_expressions"], "count"),
        "stallings.fold_s": (
            incl["stallings.from_generators"] + incl["stallings.fold_with_expressions"], "s"),
        "stallings.intersect_calls": (calls["stallings.intersect"], "count"),
        "stallings.intersect_s": (incl["stallings.intersect"], "s"),
        "stallings.intersect_hit_ratio": (hit_ratio("stallings.intersect"), "ratio"),
        "stallings.kernel_s": (incl["stallings.profinite_kernel"], "s"),
        "stallings.express_calls": (calls["stallings.express"], "count"),
        "stallings.express_s": (incl["stallings.express"], "s"),
        "stallings.tree_data_hit_ratio": (hit_ratio("stallings._tree_data"), "ratio"),
        "stallings.self_s": (selfs["stallings"], "s"),
        "lattices.self_s": (selfs["lattices"], "s"),
        "lattices.enumerate_s": (incl["lattices.enumerate_lattices"], "s"),
        "lattices.intersect_calls": (calls["lattices.intersect"], "count"),
        "lattices.intersect_hit_ratio": (hit_ratio("lattices.intersect"), "ratio"),
        "lattices.contains_calls": (calls["lattices.contains"], "count"),
        "ratmat.self_s": (selfs["ratmat"], "s"),
        "commensurations.self_s": (selfs["commensurations"], "s"),
        "commensurations.compose_calls": (calls["commensurations.compose"], "count"),
        "commensurations.compose_hit_ratio": (hit_ratio("commensurations.compose"), "ratio"),
        "commensurations.invert_hit_ratio": (hit_ratio("commensurations.invert"), "ratio"),
        "commensurations.restriction_hit_ratio": (
            hit_ratio("commensurations.restriction"), "ratio"),
        "commensurations.equivalent_hit_ratio": (
            hit_ratio("commensurations.equivalent"), "ratio"),
        "commensurations.preimage_hit_ratio": (
            hit_ratio("commensurations.preimage_subgroup"), "ratio"),
        "commensurations.preimage_s": (incl["commensurations.preimage_subgroup"], "s"),
        "commensurations.evaluate_calls": (calls["commensurations.evaluate"], "count"),
        "commensurations.evaluate_s": (incl["commensurations.evaluate"], "s"),
        "prosystems.self_s": (selfs["prosystems"], "s"),
        "prosystems.build_system_s": (incl["prosystems.build_system"], "s"),
        "prosystems.meets_computed": (ctr["meets_computed"], "count"),
        "prosystems.zeta_s": (incl["prosystems.zeta"], "s"),
        "prosystems.zeta_components": (calls["prosystems.zeta_component"], "count"),
        "prosystems.check_strict_s": (incl["prosystems.SystemMorphism.check_strict"], "s"),
        "solenoid.self_s": (selfs["solenoid"], "s"),
        "solenoid.kernel_s": (incl["solenoid.kernel"], "s"),
        "solenoid.kernel_index": (ctr["kernel_index"], "count"),
        "solenoid.d_pro_calls": (calls["solenoid.d_pro"], "count"),
        "solenoid.d_pro_s": (incl["solenoid.d_pro"], "s"),
        "solenoid.sigma_s": (incl["solenoid.sigma"], "s"),
        "solenoid.sigma_candidates": (ctr["sigma_candidates"], "count"),
        "solenoid.baseleaf_s": (incl["solenoid.baseleaf"], "s"),
        "solenoid.ball_s": (incl["solenoid.ball_structure"], "s"),
        "solenoid.fibers_scanned": (ctr["fibers_scanned"], "count"),
        "geometry.self_s": (selfs["geometry"], "s"),
        "geometry.project_calls": (calls["geometry.closest_point_project"], "count"),
        "geometry.project_s": (incl["geometry.closest_point_project"], "s"),
        "geometry.project_probes": (ctr["project_probes"], "count"),
        "geometry.project_yield": (
            ratio(calls["geometry.closest_point_project"], ctr["project_probes"]), "ratio"),
        "geometry.qi_s": (incl["geometry.qi_estimate"], "s"),
        "geometry.qi_pairs": (ctr["qi_pairs"], "count"),
        "geometry.bounded_s": (incl["geometry.bounded_distance"], "s"),
        "geometry.factor_s": (incl["geometry.factorization_check"], "s"),
        "geometry.baction_s": (incl["geometry.boundary_action"], "s"),
        "limits.guard_calls": (ctr["guard_calls"], "count"),
        "limits.refusals": (ctr["refusals"], "count"),
        "limits.max_estimate": (ctr["max_estimate"], "count"),
        "cli.calls": (calls["cli.run"], "count"),
        "cli.self_s": (selfs["cli"], "s"),
    }


def median_metrics(samples):
    """Median of each metric over passes; the unit of the first sample."""
    return {
        name: {"value": statistics.median(s[name][0] for s in samples), "unit": unit}
        for name, (_, unit) in samples[0].items()
    }


def time_criteria(acceptance, sites, verifier):
    """Each acceptance criterion from empty caches, timed by run_criterion."""
    out = {}
    for n in CRITERIA:
        clear_caches(sites)
        result = acceptance.run_criterion(n)
        verifier.attempted += 1
        if not result.ok:
            verifier.fail(0, -n, f"criterion_{n}", result.detail)
        out[f"acceptance.criterion_{n}_s"] = {"value": result.elapsed, "unit": "s"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setups = []
    setup_refs = []
    sites = {}
    for _ in range(SETUP_REPEATS):
        setup_refs.append(reference_s(sites))
        t0 = time.perf_counter()
        modules, sites, tasks, wl = set_up(args.workload, args.seed)
        setups.append(time.perf_counter() - t0)
        if tasks is None:
            sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                     f"choose from {', '.join(wl.WORKLOADS)}")
    setup_refs.append(reference_s(sites))
    setup_s = statistics.median(
        speed.rescale(t, setup_refs[i], setup_refs[i + 1]) for i, t in enumerate(setups))

    verifier = Verifier(tasks)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "setup_wall_s": setups,
        "setup_reference_s": setup_refs,
    }
    if not args.trace:
        raw, rescaled, refs, stats = measure(tasks, sites, verifier, args.seconds)
        metrics = {
            "run_s": {"value": statistics.fmean(rescaled), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "success_rate": {
                "value": 1 - len(verifier.failed_ops) / verifier.attempted, "unit": "ratio"},
        }
        report.update(pass_wall_s=raw, pass_s=rescaled, reference_s=refs, cache_stats=stats)
    else:
        import tracing
        from commsol import acceptance

        untraced_raw, untraced, untraced_refs, _ = measure(
            tasks, sites, verifier, args.seconds / 2)
        tracer = tracing.Tracer(modules)
        samples = []

        def end_pass(stats):
            tracer.close_interval()
            samples.append(per_layer(tracer, stats))

        tracer.install()
        try:
            traced_raw, traced, traced_refs, stats = measure(
                tasks, sites, verifier, args.seconds / 2,
                on_pass_start=tracer.reset, on_pass_end=end_pass)
        finally:
            tracer.uninstall()
        metrics = median_metrics(samples)
        metrics.update(time_criteria(acceptance, sites, verifier))
        metrics["trace.overhead_s"] = {
            "value": statistics.fmean(traced) - statistics.fmean(untraced), "unit": "s"}
        report.update(
            untraced_pass_wall_s=untraced_raw, untraced_pass_s=untraced,
            untraced_reference_s=untraced_refs, traced_pass_wall_s=traced_raw,
            traced_pass_s=traced, traced_reference_s=traced_refs, cache_stats=stats,
            refusals=tracer.refusals, span_names=tracer.names,
            spans=[(n, round(t0 * 1e6), round((t1 - t0) * 1e6), p) for n, t0, t1, p in tracer.spans],
        )
    failed = len(verifier.failed_ops)
    report.update(attempted=verifier.attempted, failures=verifier.failures, metrics=metrics)
    os.makedirs(OUT_DIR, exist_ok=True)
    out_file = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(report, fh, default=str)
    for f in verifier.failures[:20]:
        print(f"FAILED pass {f['pass']} op {f['op']} ({f['kind']}): {f['message']}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": verifier.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
