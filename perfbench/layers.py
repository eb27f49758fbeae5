"""Per-layer metrics: the workload's steps traced inside this process.

The layers are the modules of src/vlcsim plus `init` (interpreter start and
`import vlcsim`). For a traced pass every public function of every layer
module is replaced by a timed wrapper in every other vlcsim module that
imported it, so only calls from one layer into another are wrapped. Calls
inside a layer stay unwrapped (the per-symbol calls within ofdm carry no
tracing cost), except for the few in OWN_MODULE. Nothing under src/ is
edited and the originals are put back after the pass. A call that crosses
into another layer opens a span (name, start, end, parent span, workload);
a wrapped call inside the layer it is already in is only counted and
timed, so a layer's self time is the time of its spans minus the time
their child spans cover. Spans stay in memory and are written to
.perfbench/ when the run ends.

Each iteration of the timed phase runs the steps three ways: as child
processes with tracing off (the end-to-end path), in this process with
tracing off, and in this process traced. The difference between the last
two is trace.overhead_s. The traced self times minus that overhead, plus
interpreter start and import for every child, account for the child
pass's wall time; trace.unaccounted_s is what remains.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import math
import os
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from harness import (SRC, WORK, BenchmarkError, Outcome, OutputCheck, Runner, Workload,
                     child_env, count_lines, end_to_end, median, spawn)

LAYERS = ("ofdm", "cache", "led", "rates", "dimming", "config", "cli")
MICRO_N = (64, 1024)
MICRO_SYMBOLS = 256
MICRO_REPEATS = 5
INIT_REPEATS = 3
MIN_ITERATIONS = 2

# Per-layer metrics in report order: name -> unit. Counts ("count",
# "ratio", "B", computed work) must repeat exactly between passes.
PER_LAYER = {
    "ofdm.sample_s.n64": "s", "ofdm.sample_s.n256": "s", "ofdm.sample_s.n1024": "s",
    "ofdm.symbols": "count",
    "ofdm.symbol_us.n64": "us", "ofdm.symbol_us.n1024": "us",
    **{f"ofdm.{stage}_us.n{n}": "us" for stage in ("rng", "freq_symbol", "time_domain", "papr")
       for n in MICRO_N},
    "ofdm.ifft_gflop": "GFLOP.computed", "ofdm.ifft_mb": "MB.computed",
    "ofdm.self_s": "s",
    "cache.lookups": "count", "cache.hits": "count", "cache.hit_ratio": "ratio",
    "cache.save_s": "s", "cache.load_s": "s", "cache.bytes": "B",
    "cache.csv_s": "s", "cache.csv_rows": "count", "cache.self_s": "s",
    "led.variance_factor.calls": "count", "led.variance_factor.elems": "count",
    "led.variance_factor_s": "s", "led.self_s": "s",
    "rates.sweep_rates_s": "s", "rates.optimize_gamma_s": "s", "rates.variance_profile_s": "s",
    "rates.estimate_rate.calls": "count", "rates.csv_s": "s", "rates.csv_rows": "count",
    "rates.self_s": "s",
    "dimming.assemble_s": "s", "dimming.samples": "count",
    "dimming.csv_s": "s", "dimming.csv_rows": "count", "dimming.self_s": "s",
    "config.parse_s": "s", "config.self_s": "s",
    "cli.main_s": "s", "cli.self_s": "s", "cli.cpu_s": "s",
    "init.interp_s": "s", "init.numpy_s": "s", "init.import_s": "s",
    "trace.overhead_s": "s", "trace.wall_s": "s", "trace.unaccounted_s": "s",
}
EXACT_UNITS = {"count", "ratio", "B", "GFLOP.computed", "MB.computed"}
# Counts that define the workload's work and output; any correct vlcsim
# reproduces them. The other recorded counts describe how this version
# does the work and are compared with a notice only.
WORKLOAD_COUNTS = {"ofdm.symbols", "cache.lookups", "cache.csv_rows", "rates.csv_rows",
                   "dimming.samples", "dimming.csv_rows"}
# Functions wrapped in their own module too: the CLI entry point, which
# in_process() calls through the module, and the calls inside a layer whose
# counts or times are metrics.
OWN_MODULE = {"cli.main", "cache.load_population", "cache.save_population",
              "rates.estimate_rate"}


class Tracer:
    """Spans at layer boundaries plus per-function call counts, times and amounts."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []  # (id, name, layer, start_ns, end_ns, parent_id, self_ns)
        self.stack: list[list] = []   # open spans: [id, layer, child_ns]
        self.calls: Counter = Counter()
        self.ns: Counter = Counter()
        self.amounts: defaultdict = defaultdict(float)
        self.steps: dict[str, Counter] = {}
        self._next_id = 0

    def call(self, name, layer, fn, measure, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        span = None
        if parent is None or parent[1] != layer:
            span = [self._next_id, layer, 0]
            self._next_id += 1
            self.stack.append(span)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            if span is not None:
                self.stack.pop()
                if parent is not None:
                    parent[2] += end - start
                self.spans.append((span[0], name, layer, start, end,
                                   None if parent is None else parent[0],
                                   end - start - span[2]))
            self.calls[name] += 1
            self.ns[name] += end - start
        if measure is not None:
            measure(self, args, kwargs, result, (end - start) / 1e9)
        return result

    def write(self, path: Path):
        with open(path, "w") as fh:
            for sid, name, layer, start, end, parent, self_ns in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "layer": layer, "start_ns": start,
                                     "end_ns": end, "parent": parent, "self_ns": self_ns,
                                     "workload": self.workload}) + "\n")


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _synthesized(tr, n, factor, symbols):
    # computed, not measured: 5 M log2 M flops and 32 M bytes per complex IFFT
    m = n * factor
    tr.amounts["ofdm.symbols"] += symbols
    tr.amounts["ofdm.ifft_flop"] += symbols * 5 * m * math.log2(m)
    tr.amounts["ofdm.ifft_bytes"] += symbols * 32 * m


def _sample(tr, args, kwargs, result, seconds):
    n = _arg(args, kwargs, 0, "n_subcarriers")
    count = _arg(args, kwargs, 2, "count")
    tr.amounts[f"ofdm.sample_s.n{n}"] += seconds
    tr.amounts[f"ofdm.sampled.n{n}"] += count
    _synthesized(tr, n, _arg(args, kwargs, 4, "oversample_factor", 4), count)


def _time_domain(tr, args, kwargs, result, seconds):
    # wrapped only where another layer calls it, so never inside the sampler
    _synthesized(tr, _arg(args, kwargs, 0, "sym").n_subcarriers,
                 _arg(args, kwargs, 1, "oversample_factor", 4), 1)


def _lookup(tr, args, kwargs, result, seconds):
    tr.amounts["cache.lookups"] += 1
    tr.amounts["cache.hits"] += bool(result[1])


def _cache_file(tr, args, kwargs, result, seconds):
    tr.amounts["cache.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _elements(key):
    def measure(tr, args, kwargs, result, seconds):
        tr.amounts[key] += result.size
    return measure


def _csv(layer):
    def measure(tr, args, kwargs, result, seconds):
        tr.amounts[f"{layer}.csv_s"] += seconds
        tr.amounts[f"{layer}.csv_rows"] += count_lines(_arg(args, kwargs, 0, "path"))
    return measure


MEASURES = {
    "ofdm.sample_papr_population": _sample,
    "ofdm.to_time_domain": _time_domain,
    "cache.load_or_build": _lookup,
    "cache.load_population": _cache_file,
    "cache.save_population": _cache_file,
    "led.variance_factor": _elements("led.variance_factor.elems"),
    "dimming.assemble_waveform": _elements("dimming.samples"),
}


def import_vlcsim() -> dict:
    """The layer modules, imported from the checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {layer: importlib.import_module(f"vlcsim.{layer}") for layer in LAYERS}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every public function of every layer where another vlcsim module holds it."""
    wrappers = {}
    for layer, module in import_vlcsim().items():
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                measure = MEASURES.get(name)
                if attr.startswith("write_") and attr.endswith("_csv"):
                    measure = _csv(layer)
                wrappers[id(obj)] = (obj, name, _wrapper(tracer, name, layer, obj, measure))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "vlcsim" and not modname.startswith("vlcsim."):
            continue
        for attr, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is None or entry[0] is not obj:
                continue
            if modname == obj.__module__ and entry[1] not in OWN_MODULE:
                continue
            patched.append((module, attr, obj))
            setattr(module, attr, entry[2])
    try:
        yield
    finally:
        for module, attr, obj in reversed(patched):
            setattr(module, attr, obj)


def _wrapper(tracer, name, layer, fn, measure):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        return tracer.call(name, layer, fn, measure, args, kwargs)
    return timed


def in_process(tracer: Tracer | None):
    """An executor for Runner.run that calls vlcsim.cli.main in this process."""
    cli = importlib.import_module("vlcsim.cli")

    def execute(argv, cache, log) -> Outcome:
        before = Counter(tracer.calls) if tracer is not None else None
        saved = os.environ.get("VLCSIM_CACHE_DIR")
        os.environ["VLCSIM_CACHE_DIR"] = str(cache)
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, as in a child
            buf.write(traceback.format_exc())
            code = 1
        finally:
            wall = time.perf_counter() - start
            if saved is None:
                del os.environ["VLCSIM_CACHE_DIR"]
            else:
                os.environ["VLCSIM_CACHE_DIR"] = saved
        log.write_text(buf.getvalue())
        if tracer is not None:
            tracer.steps[argv[0]] = tracer.calls - before
        return Outcome(wall, 0.0, 0, code in (0, None) and "Traceback" not in buf.getvalue())

    return execute


def measure_init(log: Path) -> dict[str, float]:
    """Child start-up floor: bare interpreter, + NumPy, + vlcsim (which imports NumPy)."""
    cmds = {"interp": "pass", "numpy": "import numpy", "vlcsim": "import vlcsim.cli"}
    walls = defaultdict(list)
    env = child_env()
    for _ in range(INIT_REPEATS):
        for key, code in cmds.items():
            res = spawn([sys.executable, "-c", code], env, log)
            if not res.ok:
                raise BenchmarkError(f"`python -c {code!r}` failed; see {log}")
            walls[key].append(res.wall_s)
    interp = median(walls["interp"])
    return {"init.interp_s": interp, "init.numpy_s": median(walls["numpy"]) - interp,
            "init.import_s": median(walls["vlcsim"]) - interp}


def measure_symbol_stages(seed: int) -> dict[str, float]:
    """Per-symbol cost of each ofdm stage on the index range 0..MICRO_SYMBOLS-1."""
    ofdm = importlib.import_module("vlcsim.ofdm")
    qpsk = ofdm.Constellation.QPSK
    indices = range(MICRO_SYMBOLS)
    out = {}
    for n in MICRO_N:
        per = defaultdict(list)
        for _ in range(MICRO_REPEATS):
            t0 = time.perf_counter_ns()
            rngs = [ofdm.symbol_rng(seed, i) for i in indices]
            t1 = time.perf_counter_ns()
            freq = [ofdm.generate_freq_symbol(n, qpsk, rng) for rng in rngs]
            t2 = time.perf_counter_ns()
            timed = [ofdm.to_time_domain(sym, 4) for sym in freq]
            t3 = time.perf_counter_ns()
            for sym in timed:
                ofdm.papr_of(sym)
            t4 = time.perf_counter_ns()
            for stage, ns in (("rng", t1 - t0), ("freq_symbol", t2 - t1),
                              ("time_domain", t3 - t2), ("papr", t4 - t3)):
                per[stage].append(ns / 1e3 / MICRO_SYMBOLS)
        for stage, values in per.items():
            out[f"ofdm.{stage}_us.n{n}"] = median(values)
    return out


def pass_metrics(tr: Tracer) -> dict[str, float]:
    """Metrics of one traced pass (those that need no other run)."""
    self_ns = Counter()
    span_ns = Counter()
    for _sid, _name, layer, start, end, _parent, own in tr.spans:
        self_ns[layer] += own
        span_ns[layer] += end - start
    a = tr.amounts
    m = {f"ofdm.sample_s.n{n}": a[f"ofdm.sample_s.n{n}"] for n in (64, 256, 1024)}
    m["ofdm.symbols"] = a["ofdm.symbols"]
    for n in (64, 1024):
        sampled = a[f"ofdm.sampled.n{n}"]
        m[f"ofdm.symbol_us.n{n}"] = 1e6 * a[f"ofdm.sample_s.n{n}"] / sampled if sampled else 0.0
    m["ofdm.ifft_gflop"] = a["ofdm.ifft_flop"] / 1e9
    m["ofdm.ifft_mb"] = a["ofdm.ifft_bytes"] / 1e6
    lookups = a["cache.lookups"]
    m.update({
        "cache.lookups": lookups, "cache.hits": a["cache.hits"],
        "cache.hit_ratio": a["cache.hits"] / lookups if lookups else 0.0,
        "cache.save_s": tr.ns["cache.save_population"] / 1e9,
        "cache.load_s": tr.ns["cache.load_population"] / 1e9,
        "cache.bytes": a["cache.bytes"],
        "led.variance_factor.calls": tr.calls["led.variance_factor"],
        "led.variance_factor.elems": a["led.variance_factor.elems"],
        "led.variance_factor_s": tr.ns["led.variance_factor"] / 1e9,
        "rates.sweep_rates_s": tr.ns["rates.sweep_rates"] / 1e9,
        "rates.optimize_gamma_s": tr.ns["rates.optimize_gamma"] / 1e9,
        "rates.variance_profile_s": tr.ns["rates.variance_profile"] / 1e9,
        "rates.estimate_rate.calls": tr.calls["rates.estimate_rate"],
        "dimming.assemble_s": tr.ns["dimming.assemble_waveform"] / 1e9,
        "dimming.samples": a["dimming.samples"],
        "config.parse_s": span_ns["config"] / 1e9,
        "cli.main_s": tr.ns["cli.main"] / 1e9,
    })
    for layer in ("cache", "rates", "dimming"):
        m[f"{layer}.csv_s"] = a[f"{layer}.csv_s"]
        m[f"{layer}.csv_rows"] = a[f"{layer}.csv_rows"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_ns[layer] / 1e9
    return m


def run_traced(workload: Workload, seed: int, seconds: float, check: OutputCheck,
               golden: dict) -> dict:
    import_vlcsim()
    runner = Runner(workload, seed, check)
    try:
        init = measure_init(runner.work / "init.log")
        stages = measure_symbol_stages(seed)  # also warms the FFT plans in this process
        setups = [runner.setup()]  # one: fills warm-grid's cache, shows setup_s
        child_walls, child_cpus, plain_walls, traced_walls, passes = [], [], [], [], []
        start = time.perf_counter()
        while (len(passes) < MIN_ITERATIONS
               or (time.perf_counter() - start) * (1 + 1 / len(passes)) <= seconds):
            wall, cpu, _ = runner.run_pass()
            child_walls.append(wall)
            child_cpus.append(cpu)
            tracer = Tracer(workload.name)
            # alternate which in-process pass goes first, so that a drifting
            # host does not bias trace.overhead_s
            for traced in ((False, True) if len(passes) % 2 == 0 else (True, False)):
                if traced:
                    with installed(tracer):
                        traced_walls.append(runner.run_pass(in_process(tracer))[0])
                else:
                    plain_walls.append(runner.run_pass(in_process(None))[0])
            passes.append(tracer)
    finally:
        runner.close()

    per_pass = [pass_metrics(tr) for tr in passes]
    metrics = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
    notes = []
    for name, unit in PER_LAYER.items():
        if unit in EXACT_UNITS and name in metrics and len({m[name] for m in per_pass}) > 1:
            raise BenchmarkError(f"{name} does not repeat between passes: "
                                 f"{[m[name] for m in per_pass]}")
    for name, want in golden["counts"][workload.name].items():
        if metrics[name] != want:
            msg = f"{name} = {metrics[name]:.10g}, recorded {want:.10g}"
            if name in WORKLOAD_COUNTS:
                raise BenchmarkError(f"count drift: {msg}")
            notes.append(f"count differs from the one recorded with the benchmark: {msg}")

    metrics.update(init)
    metrics.update(stages)
    child = median(child_walls)
    overhead = median(traced_walls) - median(plain_walls)
    accounted = (sum(metrics[f"{layer}.self_s"] for layer in LAYERS) - overhead
                 + len(workload.steps) * (init["init.interp_s"] + init["init.import_s"]))
    metrics.update({"cli.cpu_s": median(child_cpus), "trace.overhead_s": overhead,
                    "trace.wall_s": child, "trace.unaccounted_s": child - accounted})

    WORK.mkdir(exist_ok=True)
    passes[-1].write(WORK / f"spans-{workload.name}.jsonl")
    steps = {step: dict(calls) for step, calls in passes[-1].steps.items()}
    return {
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: (metrics[name], unit) for name, unit in PER_LAYER.items()},
        "also": end_to_end(runner, setups, child_walls),
        "notes": notes,
        "detail": {"passes": len(passes), "child_wall_s": child_walls,
                   "in_process_wall_s": plain_walls, "traced_wall_s": traced_walls,
                   "calls_by_step": steps},
    }
