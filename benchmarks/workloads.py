"""Workloads, correctness checks and metrics of the ucsbound benchmark.

Importing this module imports ``ucsbound``; ``run.py`` first puts the
source tree on ``sys.path``, sets the BLAS thread variables to 1 and pins
the process to one CPU.  Every
call into the package goes through a module attribute
(``optimizer.gamma_hat``), so the traced run's wrappers see it; the
checks use the originals captured below and add no spans.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import ucsbound
from ucsbound import maxcorr, optimizer, ucslab
from ucsbound.distributions import entropy_ratio as _entropy_ratio
from ucsbound.optimizer import SearchConfig
from ucsbound.ucslab import is_or_closed as _is_or_closed

import tracing
from run import SRC, THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# Published reference evaluation and lab ground truth.
REF_T = 0.38234
REF_ALPHA = 0.035
REF_RATIO = 1.00000889
REF_ARGMIN = {"a1": 0.3300622, "a2": 0.3300622, "b1": 0.3300622, "b2": 1.0, "beta": 0.1560676}
FAMILY_COUNTS = {1: 3, 2: 13, 3: 121, 4: 4959}
MIN_PEAK = 0.5
LADDER = (0.375, 0.38, 0.382, 0.38234)
MARGIN = 1e-7


@dataclass(frozen=True)
class Scale:
    """Sizes of the workloads: FULL is the benchmark, SMOKE its self-test."""

    search: SearchConfig | None  # None: the package defaults
    cli_search_args: tuple[str, ...]
    lab_n: int
    t_tol: float
    sample_draws: int
    couplings: int
    setup_repeats: int


FULL = Scale(None, (), 4, 1e-6, 500, 32, 5)
SMOKE = Scale(
    SearchConfig(grid_points_per_axis=12, refine_rounds=1, multistart_count=2),
    ("--grid", "12", "--refine-rounds", "1", "--multistart", "2"),
    3,
    1e-3,
    50,
    4,
    1,
)


# -- inputs ------------------------------------------------------------------


def _coupling(rng: random.Random) -> tuple[float, float, float]:
    """Bernoulli marginals p, q and a joint on-mass inside their Frechet window."""
    p, q = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
    lo, hi = max(0.0, p + q - 1.0), min(p, q)
    return p, q, lo + rng.uniform(0.1, 0.9) * (hi - lo)


def make_inputs(workload: str, seed: int, scale: Scale) -> dict:
    """The seed's inputs; the package sees only these values."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        return {"ts": [*LADDER, rng.uniform(0.37, 0.382)]}
    if workload == "tmax":
        # A width in [0.017, 0.032] keeps bisection at 15 steps for t_tol = 1e-6,
        # so the seed moves the t values but not the amount of work.
        lo = rng.uniform(0.365, 0.375)
        hi = rng.uniform(max(0.39, lo + 0.017), min(0.40, lo + 0.032))
        return {"bracket": (lo, hi)}
    if workload == "lab":
        return {
            "sample_seed": rng.randrange(2**31),
            "couplings": [_coupling(rng) for _ in range(scale.couplings)],
        }
    if workload == "cli":
        return {"pq": _coupling(rng)}
    raise ValueError(f"unknown workload {workload!r}")


# -- checks: each returns a list of problems, empty when the output is right --


def _off(value, expected: float, tol: float) -> bool:
    return not (isinstance(value, (int, float)) and abs(value - expected) <= tol)


def check_reference(ratio, argmin: dict) -> list[str]:
    """The published point: ratio within 1e-6, argmin and beta within 1e-3."""
    problems = []
    if _off(ratio, REF_RATIO, 1e-6):
        problems.append(f"ratio {ratio!r} is not {REF_RATIO} +- 1e-6")
    for key, expected in REF_ARGMIN.items():
        if _off(argmin.get(key), expected, 1e-3):
            problems.append(f"{key} {argmin.get(key)!r} is not {expected} +- 1e-3")
    return problems


def check_certificate(cert) -> list[str]:
    """The bound certifies t and is the oracle's value at the argmin."""
    problems = []
    if not cert.gamma_hat_lower > 1.0:
        problems.append(f"t={cert.t}: bound {cert.gamma_hat_lower!r} does not certify")
    oracle = _entropy_ratio(cert.argmin, cert.alpha_star)
    if _off(cert.gamma_hat_lower, oracle, 1e-12):
        problems.append(f"t={cert.t}: bound {cert.gamma_hat_lower!r} != oracle {oracle!r}")
    return problems


def check_tmax(result, t_tol: float) -> list[str]:
    problems = []
    if not result.t_certified >= REF_T:
        problems.append(f"t_certified {result.t_certified!r} < {REF_T}")
    if not result.t_ceiling - result.t_certified <= t_tol:
        problems.append(f"bracket {result.t_ceiling - result.t_certified!r} wider than {t_tol}")
    if not result.certificate.gamma_hat_lower > 1.0 + result.margin:
        problems.append(f"certificate bound {result.certificate.gamma_hat_lower!r} <= 1 + margin")
    return problems


def check_count(n: int, count: int) -> list[str]:
    if count != FAMILY_COUNTS[n]:
        return [f"n={n}: {count} families, expected {FAMILY_COUNTS[n]}"]
    return []


def check_min_peak(value) -> list[str]:
    return [] if value == MIN_PEAK else [f"min p_A {value!r}, expected {MIN_PEAK}"]


def check_entropy_report(report, n: int) -> list[str]:
    problems = [f"entropy violation {v}" for v in report.violations]
    if report.checked + report.skipped != FAMILY_COUNTS[n]:
        problems.append(f"checked {report.checked} + skipped {report.skipped} != {FAMILY_COUNTS[n]}")
    return problems


def check_sample(families, n: int, draws: int) -> list[str]:
    masks = [f.mask for f in families]
    if not 1 <= len(masks) <= draws or len(set(masks)) != len(masks):
        return [f"{len(masks)} sampled families ({len(set(masks))} distinct) from {draws} draws"]
    bad = [f.hex_mask for f in families if f.n != n or not _is_or_closed(f)]
    return [f"sampled family {m} is not OR-closed on n={n}" for m in bad]


def check_maxcorr(rho, p: float, q: float, r: float) -> list[str]:
    """For two bits the maximal correlation is |Pearson|, in closed form."""
    expected = abs(r - p * q) / math.sqrt(p * (1 - p) * q * (1 - q))
    return [f"maximal correlation {rho!r}, expected {expected!r}"] if _off(rho, expected, 1e-9) else []


def check_enumerate_report(report: dict, csv_text: str, n: int) -> list[str]:
    problems = check_count(n, report.get("family_count")) + check_min_peak(report.get("min_pA"))
    problems += [f"entropy violation {v}" for v in report.get("violations", ["missing"])]
    rows = csv_text.count("\n") - 1
    if rows != FAMILY_COUNTS[n]:
        problems.append(f"CSV has {rows} rows, expected {FAMILY_COUNTS[n]}")
    return problems


# -- one run -----------------------------------------------------------------

# On a shared 2-vCPU virtual machine, CPU speed swung by up to 2.6x within
# minutes with other tenants' load: over five consecutive cli runs the raw
# pass time went from 6.2 s to 16.4 s.  A fixed reference kernel,
# independent of ucsbound and timed between ops on the same pinned CPU,
# slows down with the machine; rescaled by it, the same passes read
# 5.9-6.6 s.  Gated times are therefore "reference seconds": seconds
# measured, times KERNEL_REF_S over the kernel's time around them.
_KERNEL_X = np.linspace(0.001, 0.999, 20000)
KERNEL_REF_S = 0.010
CALIBRATE_EVERY_S = 1.0


def reference_kernel() -> float:
    """Scalar and vectorised binary entropies, the mix of work ucsbound does."""
    total = 0.0
    for i in range(1, 40000):
        a = i / 40000.0
        total -= a * math.log2(a) + (1.0 - a) * math.log2(1.0 - a)
    x = _KERNEL_X
    for _ in range(10):
        total -= float(np.sum(x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x)))
    return total


def calibrate() -> float:
    """Median time of seven runs of the reference kernel, in seconds."""
    times = []
    for _ in range(7):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Run:
    """Samples and op outcomes of one benchmark run."""

    tracer: tracing.Tracer | None = None
    samples: dict[str, list[float]] = field(default_factory=dict)
    values: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    pass_index: int = 0
    kernel_times: list[float] = field(default_factory=list)
    _calibrated_at: float = -math.inf
    _pass_ops: list[tuple[float, int]] = field(default_factory=list)

    def record(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def _calibrate(self) -> None:
        self.kernel_times.append(calibrate())
        self._calibrated_at = time.perf_counter()

    def start_pass(self, index: int) -> None:
        self.pass_index = index
        self._pass_ops = []

    def end_pass(self) -> tuple[float, float]:
        """The pass's time in its calls: seconds, and reference seconds.

        Each call is rescaled by the mean of the kernel times taken just
        before and next after it.
        """
        self._calibrate()
        k = self.kernel_times
        wall = math.fsum(elapsed for elapsed, _ in self._pass_ops)
        ref = math.fsum(elapsed * KERNEL_REF_S / (0.5 * (k[i] + k[i + 1])) for elapsed, i in self._pass_ops)
        return wall, ref

    def op(self, metric: str, call, check=None):
        """Run one timed call, then its check; a raise or a problem fails the op."""
        if time.perf_counter() - self._calibrated_at >= CALIBRATE_EVERY_S:
            self._calibrate()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = f"{self.pass_index}:{self.attempted}:{metric}"
        start = time.perf_counter()
        # A call or check that raises fails the op, not the run.
        try:
            out = call()
        except Exception as exc:
            out, problems = None, [f"{type(exc).__name__}: {exc}"]
        else:
            problems = []
        elapsed = time.perf_counter() - start
        self._pass_ops.append((elapsed, len(self.kernel_times) - 1))
        if not problems:
            self.samples.setdefault(metric, []).append(elapsed)
            try:
                problems = check(out) if check is not None else []
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self._fail(f"{metric}: {'; '.join(problems)}")
        return out

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _import_cmd(*flags: str) -> list[str]:
    return [sys.executable, *flags, "-c", "import ucsbound"]


def measure_setup(env: dict, repeats: int) -> tuple[list[float], list[float]]:
    """Fresh-interpreter ``import ucsbound``, ``repeats`` times: seconds and reference seconds.

    Only the first import in a new checkout compiles bytecode; the median
    leaves that one out.
    """
    raw, ref = [], []
    before = calibrate()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(_import_cmd(), env=env, check=True)
        elapsed = time.perf_counter() - start
        after = calibrate()
        raw.append(elapsed)
        ref.append(elapsed * KERNEL_REF_S / (0.5 * (before + after)))
        before = after
    return raw, ref


def import_profile(env: dict) -> tuple[float, float]:
    """Cumulative import time of ucsbound and of scipy.optimize, from -X importtime."""
    proc = subprocess.run(_import_cmd("-X", "importtime"), env=env, capture_output=True, text=True, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
    return cumulative.get("ucsbound", 0.0), cumulative.get("scipy.optimize", 0.0)


# -- workload passes: one pass is the workload's whole op sequence ----------


def certify_pass(run: Run, inputs: dict, scale: Scale, ctx: dict) -> None:
    for t in inputs["ts"]:
        cert = run.op("gamma_hat_s", lambda t=t: optimizer.gamma_hat(t, "auto", scale.search), check_certificate)
        if cert is not None:
            run.record("evaluations", cert.evaluations)
    run.op(
        "verify_s",
        lambda: optimizer.verify_reference_point(config=scale.search, strict=True),
        lambda c: check_reference(c.gamma_hat_lower, c.argmin.argmin_dict()),
    )
    run.op(
        "inner_inf_s",
        lambda: optimizer.inner_inf(REF_ALPHA, REF_T, scale.search),
        lambda r: check_reference(r.min_ratio, r.argmin.argmin_dict()),
    )


def tmax_pass(run: Run, inputs: dict, scale: Scale, ctx: dict) -> None:
    result = run.op(
        "tmax_s",
        lambda: optimizer.find_tmax(scale.search, margin=MARGIN, bracket=inputs["bracket"], t_tol=scale.t_tol),
        lambda r: check_tmax(r, scale.t_tol),
    )
    if result is not None:
        run.record("steps", result.steps)


def _min_peak(families, freqs) -> float:
    return min(float(f.max()) for fam, f in zip(families, freqs) if fam.mask != 1)


def lab_pass(run: Run, inputs: dict, scale: Scale, ctx: dict) -> None:
    n_top = scale.lab_n
    families = None
    for n in range(1, n_top + 1):
        families = run.op(
            f"enumerate_n{n}_s",
            lambda n=n: list(ucslab.enumerate_or_closed(n)),
            lambda fams, n=n: check_count(n, len(fams)),
        )
    run.op("min_peak_frequency_s", lambda: ucslab.min_peak_frequency(n_top), lambda r: check_min_peak(r[0]))
    if families is not None:
        run.op(
            "element_frequencies_s",
            lambda: [ucslab.element_frequencies(f) for f in families],
            lambda freqs: check_min_peak(_min_peak(families, freqs)),
        )
    run.op(
        f"entropy_check_n{n_top}_s",
        lambda: ucslab.check_entropy_inequality(n_top),
        lambda rep: check_entropy_report(rep, n_top),
    )
    sample = run.op(
        "sample_or_closed_s",
        lambda: ucslab.sample_or_closed(5, scale.sample_draws, inputs["sample_seed"]),
        lambda fams: check_sample(fams, 5, scale.sample_draws),
    )
    if sample is not None:
        run.record("distinct_ratio", len(sample) / scale.sample_draws)
    for p, q, r in inputs["couplings"]:
        run.op(
            "maximal_correlation_s",
            lambda p=p, q=q, r=r: maxcorr.maximal_correlation(maxcorr.binary_coupling(p, q, r)),
            lambda rho, p=p, q=q, r=r: check_maxcorr(rho, p, q, r),
        )


def cli_commands(inputs: dict, scale: Scale) -> list[tuple[str, list[str], object]]:
    """(name, argv, check of (report, csv text)) for the four CLI commands."""
    knobs = list(scale.cli_search_args)
    n = scale.lab_n
    p, q, r = inputs["pq"]
    return [
        (
            "verify_paper",
            ["verify-paper", "--strict", *knobs, "--no-timestamps", "--out", "verify_paper.json"],
            lambda rep, _: check_reference(rep.get("gamma_hat_lower"), rep.get("argmin") or {}),
        ),
        (
            "gamma_hat",
            ["gamma-hat", "--t", repr(REF_T), "--alpha", repr(REF_ALPHA), *knobs, "--no-timestamps", "--out", "gamma_hat.json"],
            lambda rep, _: check_reference(rep.get("gamma_hat_lower"), rep.get("argmin") or {}),
        ),
        (
            "enumerate",
            ["enumerate", "--n", str(n), "--check-entropy", "--csv", "families.csv", "--no-timestamps", "--out", "enumerate.json"],
            lambda rep, csv_text: check_enumerate_report(rep, csv_text, n),
        ),
        (
            "maxcorr",
            ["maxcorr", "--pq", repr(p), repr(q), repr(r), "--no-timestamps", "--out", "maxcorr.json"],
            lambda rep, _: check_maxcorr(rep.get("maximal_correlation"), p, q, r),
        ),
    ]


def _written(workdir: Path, argv: list[str]) -> list[Path]:
    """Files a command writes: its report, the report's manifest and any CSV."""
    out = workdir / argv[argv.index("--out") + 1]
    files = [out, Path(f"{out}.manifest.json")]
    if "--csv" in argv:
        files.append(workdir / argv[argv.index("--csv") + 1])
    return files


def run_cli(argv: list[str], ctx: dict, spans_file: Path | None) -> list[bytes]:
    """One CLI command as a subprocess; returns the bytes of the files it wrote."""
    workdir = ctx["workdir"]
    files = _written(workdir, argv)
    for path in files:
        path.unlink(missing_ok=True)
    if spans_file is None:
        cmd = [sys.executable, "-m", "ucsbound.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracing.py"), str(spans_file), *argv]
    proc = subprocess.run(cmd, cwd=workdir, env=ctx["env"], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return [path.read_bytes() for path in files]


def _cli_check(name: str, check, ctx: dict):
    def verify(blobs: list[bytes]) -> list[str]:
        try:
            report = json.loads(blobs[0])
            json.loads(blobs[1])
        except ValueError as exc:
            return [f"report does not parse: {exc}"]
        problems = check(report, blobs[2].decode() if len(blobs) > 2 else "")
        digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
        if ctx["digests"].setdefault(name, digest) != digest:
            problems.append("--no-timestamps output differs from the first repetition")
        return problems

    return verify


def cli_pass(run: Run, inputs: dict, scale: Scale, ctx: dict) -> None:
    traced = run.tracer is not None
    for name, argv, check in cli_commands(inputs, scale):
        spans_file = ctx["workdir"] / f"spans-{name}.json" if traced else None
        blobs = run.op(f"cli_{name}_s", lambda: run_cli(argv, ctx, spans_file), _cli_check(name, check, ctx))
        if blobs is not None:
            run.record(f"report_bytes.{name}", sum(len(b) for b in blobs))
        if traced and spans_file.exists():
            _merge_spans(run.tracer, json.loads(spans_file.read_text()), run.tracer.op)


def _merge_spans(tracer: tracing.Tracer, spans: list[dict], op: str) -> None:
    base = len(tracer.spans)
    for s in spans:
        s["id"] += base
        s["parent"] = None if s["parent"] is None else s["parent"] + base
        s["op"] = op
        tracer.spans.append(s)


PASSES = {"certify": certify_pass, "tmax": tmax_pass, "lab": lab_pass, "cli": cli_pass}


# -- metrics -------------------------------------------------------------------

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "rss_peak_mb": "MB"}

PER_LAYER_UNITS = {
    "optimizer.inner_searches": "count",
    "optimizer.evaluations": "count",
    "scalars.binary_entropy.calls": "count",
    "optimizer.gamma_hat.calls": "count",
    "optimizer.find_tmax.steps": "count",
    "optimizer.grid_s": "s",
    "optimizer.inner_inf_s": "s",
    "optimizer.refine_s": "s",
    "optimizer.gamma_hat.self_s": "s",
    "distributions.entropy_ratio.s": "s",
    "ucslab.enumerate_or_closed.n3_s": "s",
    "ucslab.enumerate_or_closed.n4_s": "s",
    "ucslab.element_frequencies.s": "s",
    "ucslab.max_symmetric_coupling_entropy.calls": "count",
    "ucslab.max_symmetric_coupling_entropy.p50_s": "s",
    "ucslab.max_symmetric_coupling_entropy.p99_s": "s",
    "ucslab.sample_or_closed.s": "s",
    "ucslab.sample_or_closed.distinct_ratio": "ratio",
    "maxcorr.maximal_correlation.p50_s": "s",
    "cli.import_s": "s",
    "cli.import.scipy_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(p * len(ordered)) - 1))]


def summarize(samples: list[float]) -> dict:
    """Median and sample count, plus the highest percentile with ten samples beyond it."""
    out = {"median": tracing.median(samples), "n": len(samples)}
    for p in (0.99, 0.9):
        if len(samples) * (1 - p) >= 10:
            out[f"p{round(p * 100)}"] = percentile(samples, p)
            break
    return out


def _grid_probes(scale: Scale) -> dict:
    """Grid build alone, and one whole inner search, each the median of three."""
    base = scale.search or SearchConfig()
    grid_only = SearchConfig(**{**base.to_json_dict(), "refine_rounds": 0, "multistart_count": 1})

    def timed(config) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            optimizer.inner_inf(REF_ALPHA, REF_T, config)
            times.append(time.perf_counter() - start)
        return tracing.median(times)

    grid_s, inner_s = timed(grid_only), timed(base)
    return {"optimizer.grid_s": grid_s, "optimizer.inner_inf_s": inner_s, "optimizer.refine_s": inner_s - grid_s}


def layer_metrics(spans: list[dict], run: Run, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer values from one traced pass.  A layer the workload does not reach reads 0."""
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    kids = tracing.children(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    dur = tracing.duration

    gamma = by_name.get("optimizer.gamma_hat", [])
    if gamma:
        oracle = [[c for c in kids.get(g["id"], ()) if c["name"] == "distributions.entropy_ratio"] for g in gamma]
        out["optimizer.inner_searches"] = tracing.median(len(o) for o in oracle)
        out["scalars.binary_entropy.calls"] = tracing.median(g["counts"].get("scalars.binary_entropy", 0) for g in gamma)
        out["optimizer.gamma_hat.calls"] = len(gamma)
        out["optimizer.gamma_hat.self_s"] = tracing.median(tracing.self_time(g, kids) for g in gamma)
        out["distributions.entropy_ratio.s"] = tracing.median(sum(dur(c) for c in o) for o in oracle)
    out["optimizer.evaluations"] = tracing.median(run.values.get("evaluations", []))
    out["optimizer.find_tmax.steps"] = tracing.median(run.values.get("steps", []))

    for n in (3, 4):
        enum = [dur(s) for s in by_name.get("ucslab.enumerate_or_closed", []) if s["args"][:1] == [n]]
        out[f"ucslab.enumerate_or_closed.n{n}_s"] = tracing.median(enum)
    # Frequencies the workload asks for itself, not those min_peak_frequency takes.
    out["ucslab.element_frequencies.s"] = math.fsum(
        dur(s) for s in by_name.get("ucslab.element_frequencies", []) if s["parent"] is None
    )
    coupling = [dur(s) for s in by_name.get("ucslab.max_symmetric_coupling_entropy", [])]
    if coupling:
        out["ucslab.max_symmetric_coupling_entropy.calls"] = len(coupling)
        out["ucslab.max_symmetric_coupling_entropy.p50_s"] = tracing.median(coupling)
        out["ucslab.max_symmetric_coupling_entropy.p99_s"] = percentile(coupling, 0.99)
    out["ucslab.sample_or_closed.s"] = tracing.median(dur(s) for s in by_name.get("ucslab.sample_or_closed", []))
    out["ucslab.sample_or_closed.distinct_ratio"] = tracing.median(run.values.get("distinct_ratio", []))
    out["maxcorr.maximal_correlation.p50_s"] = tracing.median(dur(s) for s in by_name.get("maxcorr.maximal_correlation", []))
    report_bytes = [v[-1] for k, v in run.values.items() if k.startswith("report_bytes.")]
    if report_bytes:
        out["cli.report_bytes"] = sum(report_bytes) / len(report_bytes)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ucsbound": ucsbound.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "git_sha": sha,
        "threads": {var: os.environ.get(var) for var in (*THREAD_VARS, "UCSB_THREADS")},
    }


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    inputs: dict
    env: dict
    run: Run
    named: dict
    metrics: dict
    spans: list[dict]

    def summary(self) -> dict:
        """The result line: exactly the keys the benchmark contract names."""
        units = PER_LAYER_UNITS if self.trace else END_TO_END_UNITS
        return {
            "correct": self.run.failed == 0,
            "attempted": self.run.attempted,
            "failed": self.run.failed,
            "metrics": {k: {"value": self.metrics[k], "unit": units[k]} for k in units},
        }

    def lines(self) -> list[str]:
        """Human-readable report: every named metric with its unit and sample count."""
        out = [f"workload {self.workload} seed {self.seed} trace {int(self.trace)}"]
        for name, stats in self.named.items():
            extra = "".join(f" {k}={v:.6g}" for k, v in stats.items() if k.startswith("p"))
            out.append(f"  {name:<34} {stats['median']:.6g} {stats['unit']} (median of {stats['n']}{extra})")
        out.append(f"  {'error_rate':<34} {self.run.failed / max(1, self.run.attempted):.6g} (of {self.run.attempted} ops)")
        for error in self.run.errors:
            out.append(f"  FAILED {error}")
        return out

    def save(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        stem = f"{self.workload}-seed{self.seed}-trace{int(self.trace)}"
        payload = {
            "workload": self.workload,
            "seed": self.seed,
            "inputs": self.inputs,
            "environment": self.env,
            "named_metrics": self.named,
            "errors": self.run.errors,
            **self.summary(),
        }
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        if self.trace:
            (directory / f"{stem}-spans.json").write_text(json.dumps(self.spans))
        return path


def _traced_pass(run: Run, one_pass, inputs: dict, scale: Scale, ctx: dict, walls: list[float], workload: str):
    """One more pass with the tracer installed; returns its spans and the per-layer metrics."""
    probes = {}
    if workload in ("certify", "cli"):
        probes.update(_grid_probes(scale))
    if workload == "cli":
        probes["cli.import_s"], probes["cli.import.scipy_s"] = import_profile(ctx["env"])
    run.tracer = tracing.Tracer()
    run.start_pass(len(walls))
    run.tracer.install()
    try:
        one_pass(run, inputs, scale, ctx)
    finally:
        run.tracer.uninstall()
    traced_wall, _ = run.end_pass()
    metrics = layer_metrics(run.tracer.spans, run, traced_wall, tracing.median(walls))
    return run.tracer.spans, {**metrics, **probes}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> Result:
    """Set up, run whole passes until ``seconds`` have passed, then one traced pass if asked."""
    inputs = make_inputs(workload, seed, scale)
    env = child_env()
    setup_raw, setup = measure_setup(env, scale.setup_repeats)
    workdir = RESULTS / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = {"env": env, "workdir": workdir, "digests": {}}
    one_pass = PASSES[workload]
    run = Run()
    walls: list[float] = []
    walls_ref: list[float] = []
    try:
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < seconds:
            run.start_pass(len(walls))
            one_pass(run, inputs, scale, ctx)
            wall, wall_ref = run.end_pass()
            walls.append(wall)
            walls_ref.append(wall_ref)
        rusage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(rusage).ru_maxrss / 1024.0
        samples = {
            "setup_s": setup,
            "wall_s": walls_ref,
            "setup_raw_s": setup_raw,
            "wall_raw_s": walls,
            "kernel_s": run.kernel_times,
            **run.samples,
        }
        named = {name: {**summarize(values), "unit": "s"} for name, values in samples.items()}
        named["rss_peak_mb"] = {"median": rss_mb, "n": 1, "unit": "MB"}
        if trace:
            spans, metrics = _traced_pass(run, one_pass, inputs, scale, ctx, walls, workload)
        else:
            spans = []
            metrics = {"setup_s": named["setup_s"]["median"], "wall_s": named["wall_s"]["median"], "rss_peak_mb": rss_mb}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return Result(workload, seed, trace, inputs, environment(), run, named, metrics, spans)
