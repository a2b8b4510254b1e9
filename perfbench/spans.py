"""Spans around drdetect's public functions, recorded from outside the package.

`Recorder.install()` wraps each traced function at every module attribute
that holds it.  Callers often bind a function under their own module
(`detector_tuning.solve_sdp`, `cli_runner.simulate`, ...), so wrapping only
the defining module would miss those calls.  Each span keeps its name,
start, end, parent span and a few attributes read from the call's
arguments or result.  Spans stay in memory until the caller writes them
out; `layer_metrics` turns them into the per-layer metrics.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

# span name -> (defining module, attribute path); a dotted path names a
# method or classmethod on a class of that module
TARGETS = {
    "ipm.solve": ("drdetect.ipm", "solve"),
    "bound_engine.build_sdp": ("drdetect.bound_engine", "build_sdp"),
    "bound_engine.solve_sdp": ("drdetect.bound_engine", "solve_sdp"),
    "detector_tuning.tune_threshold_sdp": (
        "drdetect.detector_tuning",
        "tune_threshold_sdp",
    ),
    "moment_core.is_feasible": ("drdetect.moment_core", "is_feasible"),
    "moment_core.estimate_moments": ("drdetect.moment_core", "estimate_moments"),
    "cps_sim.simulate": ("drdetect.cps_sim", "simulate"),
    "cps_sim.NoiseModel.sample": ("drdetect.cps_sim", "NoiseModel.sample"),
    "cps_sim.LtiSystem.from_matrices": (
        "drdetect.cps_sim",
        "LtiSystem.from_matrices",
    ),
    "attack_reach.reach_bound": ("drdetect.attack_reach", "reach_bound"),
    "attack_reach.volume_comparison": ("drdetect.attack_reach", "volume_comparison"),
    "cli_runner.resolve_moments": ("drdetect.cli_runner", "resolve_moments"),
    "cli_runner.run_tune": ("drdetect.cli_runner", "run_tune"),
    "cli_runner.run_far": ("drdetect.cli_runner", "run_far"),
    "cli_runner.run_reach": ("drdetect.cli_runner", "run_reach"),
    "cli_runner.main": ("drdetect.cli_runner", "main"),
}

# error categories that run_tune skips; anything else is "other"
ERROR_TYPES = ("TuningError", "ValueError", "ArithmeticError")

TUNE = "detector_tuning.tune_threshold_sdp"
SOLVE = "ipm.solve"


def _error_category(exc: BaseException) -> str:
    names = [cls.__name__ for cls in type(exc).__mro__]
    for name in ERROR_TYPES:
        if name in names:
            return name
    return "other"


def _ipm_attrs(bound, result) -> dict:
    return {
        "k": len(bound.arguments["prob"].c_free) - 1,
        "iters": int(result.iterations),
        "status": result.status.value,
    }


def _sdp_attrs(bound, result) -> dict:
    return {"status": result.status.value}


def _tune_attrs(bound, result) -> dict:
    return {"k": bound.arguments["moments"].order}


def _simulate_attrs(bound, result) -> dict:
    args = bound.arguments
    # the same test simulate() makes before taking the modal route
    modal = (
        args.get("attack") is None
        and args.get("x0") is None
        and args.get("xhat0") is None
        and not args.get("keep_states")
    )
    return {
        "path": "modal" if modal else "loop",
        "steps": int(args["T"]) + int(args["burn_in"]),
    }


def _moments_attrs(bound, result) -> dict:
    return {"n": int(len(bound.arguments["samples"]))}


DESCRIBE = {
    "ipm.solve": _ipm_attrs,
    "bound_engine.solve_sdp": _sdp_attrs,
    TUNE: _tune_attrs,
    "cps_sim.simulate": _simulate_attrs,
    "moment_core.estimate_moments": _moments_attrs,
}


class Recorder:
    """In-memory span list; a span is [name, start, end, parent, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float, attrs=None) -> None:
        """Add a finished span that no wrapper produced (e.g. the import)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, attrs])

    def wrap(self, name: str, fn):
        describe = DESCRIBE.get(name)
        signature = inspect.signature(fn) if describe else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[4] = {"error": _error_category(exc)}
                raise
            finally:
                stack.pop()
            span[2] = time.perf_counter()
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = describe(bound, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each drdetect module attribute bound to it.
        Call after `import drdetect`, which loads every submodule."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "drdetect" or key.startswith("drdetect.")
        ]
        for name, (module_name, path) in TARGETS.items():
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.missing.append(name)
                continue
            if owner_name:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(name, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ancestors(spans: list[list], index: int, name: str) -> int:
    count = 0
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            count += 1
        parent = spans[parent][3]
    return count


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# name -> unit, in report order; every traced run reports all of them
UNITS = {
    "ipm.solve.calls": "count",
    "ipm.solve.self_s": "s",
    "ipm.solve.s_p50": "s",
    "ipm.solve.s_p50.k4": "s",
    "ipm.solve.iters_p50": "count",
    "ipm.solve.iters_max": "count",
    "ipm.solve.status.max_iter": "count",
    "ipm.solve.status.numerical_trouble": "count",
    "bound_engine.solve_sdp.calls": "count",
    "bound_engine.solve_sdp.self_s": "s",
    "bound_engine.solve_sdp.status.numerical_trouble": "count",
    "bound_engine.build_sdp.calls": "count",
    "bound_engine.build_sdp.s_sum": "s",
    "detector_tuning.tune_threshold_sdp.calls": "count",
    "detector_tuning.tune_threshold_sdp.calls_nested": "count",
    "detector_tuning.tune_threshold_sdp.self_s": "s",
    "detector_tuning.solves_per_threshold": "count",
    "detector_tuning.nested_solve_share": "ratio",
    "detector_tuning.errors.TuningError": "count",
    "detector_tuning.errors.ValueError": "count",
    "detector_tuning.errors.ArithmeticError": "count",
    "cps_sim.simulate.modal.steps_per_s": "1/s",
    "cps_sim.simulate.loop.steps_per_s": "1/s",
    "cps_sim.NoiseModel.sample.s": "s",
    "cps_sim.LtiSystem.from_matrices.s": "s",
    "attack_reach.reach_bound.calls": "count",
    "attack_reach.reach_bound.s_p50": "s",
    "attack_reach.volume_comparison.s": "s",
    "moment_core.estimate_moments.s_per_1e6": "s",
    "moment_core.is_feasible.calls": "count",
    "moment_core.is_feasible.s_sum": "s",
    "cli_runner.resolve_moments.s": "s",
    "cli_runner.run_tune.s": "s",
    "cli_runner.run_far.s": "s",
    "cli_runner.run_reach.s": "s",
    "cli_runner.main.self_s": "s",
    "package.import_s": "s",
    "trace.wall_s": "s",
    "trace.layer_self_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(
    groups: list[dict], pass_raw_s: float, wall_s: float, untraced_wall_s: float
):
    """(metrics, sample counts) from span groups, one group per traced
    process.  `pass_raw_s` is the raw wall time of the traced pass, which
    the layers' self times and the benchmark's own time add up to.
    `wall_s` and `untraced_wall_s` are the end-to-end wall_s of the traced
    and an untraced pass; their difference is the tracing overhead.

    A group is {"spans": [...], "window": [t0, t1] or None}.  Self times
    that count toward the traced wall time are taken only from spans that
    start inside the group's timed window (all spans when it is None);
    counts and per-call times use every span, so set-up calls such as
    `LtiSystem.from_matrices` still show.
    """
    rows: list[tuple[list, float, int, bool]] = []
    for group in groups:
        spans = group["spans"]
        own = _self_times(spans)
        window = group.get("window")
        for i, span in enumerate(spans):
            timed = window is None or window[0] <= span[1] <= window[1]
            nested = _ancestors(spans, i, TUNE) if span[0] in (TUNE, SOLVE) else 0
            rows.append((span, own[i], nested, timed))

    def of(name):
        return [r for r in rows if r[0][0] == name]

    def dur(r):
        return r[0][2] - r[0][1]

    def attr(r, key, default=None):
        return (r[0][4] or {}).get(key, default)

    m: dict[str, float] = {}
    n: dict[str, int] = {}

    def put(name, value, samples):
        m[name] = value
        n[name] = samples

    solves = of(SOLVE)
    k4 = [dur(r) for r in solves if attr(r, "k") == 4]
    iters = [attr(r, "iters") for r in solves if attr(r, "iters") is not None]
    put("ipm.solve.calls", len(solves), len(solves))
    put("ipm.solve.self_s", sum(r[1] for r in solves), len(solves))
    put("ipm.solve.s_p50", _median([dur(r) for r in solves]), len(solves))
    put("ipm.solve.s_p50.k4", _median(k4), len(k4))
    put("ipm.solve.iters_p50", _median(iters), len(iters))
    put("ipm.solve.iters_max", max(iters, default=0), len(iters))
    for status in ("max_iter", "numerical_trouble"):
        hits = sum(1 for r in solves if attr(r, "status") == status)
        put(f"ipm.solve.status.{status}", hits, len(solves))

    sdps = of("bound_engine.solve_sdp")
    put("bound_engine.solve_sdp.calls", len(sdps), len(sdps))
    put("bound_engine.solve_sdp.self_s", sum(r[1] for r in sdps), len(sdps))
    hits = sum(1 for r in sdps if attr(r, "status") == "numerical_trouble")
    put("bound_engine.solve_sdp.status.numerical_trouble", hits, len(sdps))
    builds = of("bound_engine.build_sdp")
    put("bound_engine.build_sdp.calls", len(builds), len(builds))
    put("bound_engine.build_sdp.s_sum", sum(dur(r) for r in builds), len(builds))

    tunes = of(TUNE)
    top = [r for r in tunes if r[2] == 0]
    prefix = "detector_tuning.tune_threshold_sdp"
    put(f"{prefix}.calls", len(tunes), len(tunes))
    put(f"{prefix}.calls_nested", len(tunes) - len(top), len(tunes))
    put(f"{prefix}.self_s", sum(r[1] for r in tunes), len(tunes))
    put(
        "detector_tuning.solves_per_threshold",
        len(solves) / len(top) if top else 0.0,
        len(top),
    )
    # a solve with two tune ancestors runs inside a recursive k-1 re-tune
    tuned = [r for r in solves if r[2] >= 1]
    nested = sum(1 for r in tuned if r[2] >= 2)
    put(
        "detector_tuning.nested_solve_share",
        nested / len(tuned) if tuned else 0.0,
        len(tuned),
    )
    for name in ERROR_TYPES:
        hits = sum(1 for r in top if attr(r, "error") == name)
        put(f"detector_tuning.errors.{name}", hits, len(top))

    sims = of("cps_sim.simulate")
    for path in ("modal", "loop"):
        picked = [r for r in sims if attr(r, "path") == path]
        seconds = sum(dur(r) for r in picked)
        steps = sum(attr(r, "steps", 0) for r in picked)
        put(
            f"cps_sim.simulate.{path}.steps_per_s",
            steps / seconds if seconds else 0.0,
            len(picked),
        )
    for name in ("cps_sim.NoiseModel.sample", "cps_sim.LtiSystem.from_matrices"):
        picked = of(name)
        put(f"{name}.s", sum(dur(r) for r in picked), len(picked))

    reaches = of("attack_reach.reach_bound")
    put("attack_reach.reach_bound.calls", len(reaches), len(reaches))
    p50 = _median([dur(r) for r in reaches])
    put("attack_reach.reach_bound.s_p50", p50, len(reaches))
    picked = of("attack_reach.volume_comparison")
    put("attack_reach.volume_comparison.s", sum(dur(r) for r in picked), len(picked))

    estimates = of("moment_core.estimate_moments")
    samples = sum(attr(r, "n", 0) for r in estimates)
    put(
        "moment_core.estimate_moments.s_per_1e6",
        sum(dur(r) for r in estimates) / (samples / 1e6) if samples else 0.0,
        len(estimates),
    )
    feasible = of("moment_core.is_feasible")
    put("moment_core.is_feasible.calls", len(feasible), len(feasible))
    put("moment_core.is_feasible.s_sum", sum(dur(r) for r in feasible), len(feasible))

    for stage in ("resolve_moments", "run_tune", "run_far", "run_reach"):
        picked = of(f"cli_runner.{stage}")
        put(f"cli_runner.{stage}.s", sum(dur(r) for r in picked), len(picked))
    picked = of("cli_runner.main")
    put("cli_runner.main.self_s", sum(r[1] for r in picked), len(picked))
    picked = of("package.import")
    put("package.import_s", sum(dur(r) for r in picked), len(picked))

    timed = [r for r in rows if r[3]]
    layer_self = sum(r[1] for r in timed)
    put("trace.wall_s", pass_raw_s, 1)
    put("trace.layer_self_s", layer_self, len(timed))
    put("trace.unattributed_s", pass_raw_s - layer_self, 1)
    put("trace.overhead_s", wall_s - untraced_wall_s, 2)
    metrics = {name: {"value": m[name], "unit": unit} for name, unit in UNITS.items()}
    return metrics, {name: n[name] for name in UNITS}
