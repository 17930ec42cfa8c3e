"""Benchmark of dispersive_cqed: three workloads, end-to-end and per-layer metrics.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload family_above_gap --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                     # every workload, one after another

An untraced run (``--trace 0``) prints the end-to-end metrics, a traced run
(``--trace 1``) the per-layer ones.  Every operation's output is checked
outside the timed region; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--corrupt-reference`` perturbs the stored references by 1e-5 (relative)
to show that wrong answers are counted as failed operations.

Timings are reported at nominal host speed (see ``calibration.py``): the
fixed calibration kernel runs between operations, and each latency is
scaled by the kernel's nominal time over its time measured next to it.
The unscaled wall-clock figures are printed on the text lines as well.
"""

import os

for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_key] = "1"  # before numpy creates its pools; children inherit it

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_DIR = BENCH_DIR / "references"

SETUP_PROBES = 5  # fresh-interpreter set-ups per run; setup_s is their median
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_OPS_BEYOND = 10
CORRUPTION = 1e-5


def _import_library():
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "dispersive_cqed" / "__init__.py").is_file():
        sys.exit(f"bench: no dispersive_cqed sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import dispersive_cqed

    if Path(dispersive_cqed.__file__).resolve().parent != SRC / "dispersive_cqed":
        sys.exit(f"bench: dispersive_cqed imported from {dispersive_cqed.__file__}, not {SRC}")


_import_library()

import numpy as np  # noqa: E402

import calibration  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402


@dataclass
class Context:
    work_dir: Path  # per-run directory for CLI outputs
    tracer: Tracer | None


# ---------------------------------------------------------------------------
# references


def _perturb(value, factor):
    if isinstance(value, float):
        return value * factor
    if isinstance(value, list):
        return [_perturb(v, factor) for v in value]
    if isinstance(value, dict):
        return {k: _perturb(v, factor) for k, v in value.items()}
    return value


def load_references(corrupt: bool) -> dict:
    refs = {"model": json.loads((REFERENCE_DIR / "model.json").read_text()), "seeds": {}}
    for path in sorted(REFERENCE_DIR.glob("seed_*.json")):
        refs["seeds"][path.stem.split("_", 1)[1]] = json.loads(path.read_text())
    return _perturb(refs, 1.0 + CORRUPTION) if corrupt else refs


# ---------------------------------------------------------------------------
# measurement


def pin_to_one_cpu():
    """Run this process and its children on one vCPU, where the kernel is timed too."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control here: run unpinned
        pass


def setup_seconds(name: str) -> tuple[float, float]:
    """Median over fresh interpreters of importing the library and building inputs.

    Returns (scaled to nominal host speed, wall clock); each probe is scaled
    by the calibration kernel timed just before and just after it.
    """
    scaled, wall = [], []
    before = calibration.kernel()
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=120, check=True,
        )
        after = calibration.kernel()
        setup_s = float(out.stdout.split()[-1])
        scaled.append(setup_s * calibration.NOMINAL_S / (0.5 * (before + after)))
        wall.append(setup_s)
        before = after
    return statistics.median(scaled), statistics.median(wall)


def tail_latency(latencies):
    """Highest listed percentile with at least TAIL_OPS_BEYOND ops beyond it."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_OPS_BEYOND:
            return p, float(np.percentile(latencies, p))
    return None, None


class Run:
    """One workload at one seed: warm-up, timed passes, checks, metrics."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, corrupt: bool):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.setup_s, self.setup_wall_s = setup_seconds(name)
        self.refs = load_references(corrupt)
        self.tracer = Tracer() if trace else None
        if self.tracer is not None:
            self.tracer.install()
        self.workload = WORKLOADS[name]()
        self.ctx = Context(OUT_DIR / f"run-{os.getpid()}-{name}", self.tracer)
        self.attempted = self.failed = 0
        self.errors = []
        self.latencies = []  # wall-clock seconds of the timed ops
        self.kernel_s = []  # calibration kernel time next to each timed op
        self.passed_ops = 0
        self.child_rss_kb = []
        self.child_summaries = []  # (summary, main_s, latency, bytes written) per CLI op
        self.child_spans = []

    def _op(self, op, pass_index, measured: bool) -> bool:
        """Run and check one op; True when it was timed."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op, self.tracer.pass_index = op.key, pass_index
        latency = result = None
        try:
            latency, result = self.workload.run(op, self.ctx)
            problems = self.workload.check(op, result, self.refs, self.seed)
        except Exception:  # a raising op or check is a failed op; keep measuring
            problems = [f"{self.name} op {op.key}: {traceback.format_exc(limit=3)}"]
        if problems:
            self.failed += 1
            self.errors.extend(problems)
        if measured and latency is not None:
            self.latencies.append(latency)
            self.passed_ops += not problems
            if not self.workload.in_process:
                self._collect_child(result, pass_index, latency)
        if result is not None and not self.workload.in_process:
            shutil.rmtree(result.out_dir, ignore_errors=True)
        return measured and latency is not None

    def _collect_child(self, result, pass_index, latency):
        self.child_rss_kb.append(result.max_rss_kb)
        if result.trace_path is None:
            return
        written = sum(p.stat().st_size for p in result.out_dir.glob("*.csv"))
        data = json.loads(result.trace_path.read_text())
        summary = data["summary"]
        summary["fixed_points"] = [[pass_index, key, calls]
                                   for _, key, calls in summary["fixed_points"]]
        self.child_summaries.append((summary, data["main_s"], latency, written))
        self.child_spans.append({"op": result.out_dir.name, "spans": data["spans"],
                                 "aggregates": data["aggregates"]})

    def _timed_ops(self, rng, ops):
        """(pass index, op) from the already drawn first pass onwards, without end."""
        index = 0
        while True:
            for op in ops:
                yield index, op
            index += 1
            ops = self.workload.draw_pass(rng, index)

    def execute(self):
        self.ctx.work_dir.mkdir(parents=True, exist_ok=True)
        try:
            rng = np.random.default_rng(self.seed)
            ops = self.workload.draw_pass(rng, 0)
            self._op(ops[0], 0, measured=False)  # warm-up: checked, not timed
            if self.tracer is not None:
                self.tracer.reset()
            before = calibration.kernel()
            t_start = time.perf_counter()
            for index, op in self._timed_ops(rng, ops):
                timed = self._op(op, index, measured=True)
                after = calibration.kernel()
                if timed:
                    self.kernel_s.append(0.5 * (before + after))
                before = after
                elapsed = time.perf_counter() - t_start
                enough = len(self.latencies) >= self.workload.min_ops
                if (elapsed >= self.seconds and enough) or elapsed >= 4.0 * self.seconds:
                    break
            self.passes = index + 1
        finally:
            shutil.rmtree(self.ctx.work_dir, ignore_errors=True)

    # -- metrics ---------------------------------------------------------

    def scaled_latencies(self) -> list[float]:
        """Each op's latency at nominal host speed, by the kernel timed next to it."""
        return [lat * calibration.NOMINAL_S / k for lat, k in zip(self.latencies, self.kernel_s)]

    def scaled_ops_per_s(self) -> float:
        """Passed ops per second of op time, at the run's mean host speed."""
        host = statistics.fmean(self.kernel_s) / calibration.NOMINAL_S
        return self.passed_ops / sum(self.latencies) * host

    def end_to_end(self) -> dict:
        lat = self.scaled_latencies()
        if self.workload.in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = max(self.child_rss_kb)
        tail_p, tail_s = tail_latency(lat)
        self.tail_note = f"p{tail_p:g} of {len(lat)} ops" if tail_p else f"{len(lat)} ops"
        metrics = {
            "setup_s": (self.setup_s, "s"),
            "ops_per_s": (self.scaled_ops_per_s(), "1/s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "op_tail_s": (tail_s, "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        return {k: v for k, v in metrics.items() if v[0] is not None}

    def wall_clock(self) -> dict:
        """The unscaled end-to-end timings and the host speed, for the text lines."""
        lat = self.latencies
        return {
            "wall.setup_s": (self.setup_wall_s, "s"),
            "wall.ops_per_s": (self.passed_ops / sum(lat), "1/s"),
            "wall.op_p50_s": (statistics.median(lat), "s"),
            "wall.op_tail_s": (tail_latency(lat)[1], "s"),
            "host.kernel_p50_s": (statistics.median(self.kernel_s), "s"),
        }

    def per_layer(self) -> dict:
        summaries = [self.tracer.summary()] + [s for s, *_ in self.child_summaries]
        per_name, counts, fixed_points = defaultdict(lambda: [0, 0.0, 0.0]), defaultdict(int), []
        for s in summaries:
            for name, stats in s["per_name"].items():
                for i in range(3):
                    per_name[name][i] += stats[i]
            for key, value in s["counts"].items():
                counts[key] += value
            fixed_points += s["fixed_points"]
        n_ops = len(self.latencies)

        def calls(*names):
            return sum(per_name[n][0] for n in names) / n_ops

        def self_s(*names):
            return sum(per_name[n][2] for n in names) / n_ops

        by_pass = defaultdict(set)
        for pass_index, key, _ in fixed_points:
            by_pass[pass_index].add(key)
        distinct = sum(len(keys) for keys in by_pass.values())
        rhs = [c for _, _, c in fixed_points]
        cli = self.child_summaries
        carlson = ("elliptic.carlson_rf", "elliptic.carlson_rd")
        incomplete = ("elliptic.ellip_incomplete_f", "elliptic.ellip_incomplete_e")
        metrics = {
            "elliptic.carlson_calls": (calls(*carlson), "count"),
            "elliptic.carlson_self_s": (self_s(*carlson), "s"),
            "elliptic.incomplete_calls": (calls(*incomplete), "count"),
            "elliptic.incomplete_self_s": (self_s(*incomplete), "s"),
            "elliptic.probe_fallback_ratio": (
                counts["probe_fallbacks"] / max(counts["incomplete_auto"], 1), "ratio"),
            "elliptic.quadrature_calls": (calls("elliptic.contour_quadrature"), "count"),
            "elliptic.quadrature_panels": (counts["quadrature_points"] / 15.0 / n_ops, "count"),
            "elliptic.quadrature_self_s": (self_s("elliptic.contour_quadrature"), "s"),
            "mattis_bardeen.sigma_tilde_calls": (calls("mattis_bardeen.sigma_tilde"), "count"),
            "mattis_bardeen.sigma_tilde_self_s": (self_s("mattis_bardeen.sigma_tilde"), "s"),
            "mattis_bardeen.sigma_real_axis_calls": (
                calls("mattis_bardeen.sigma_real_axis"), "count"),
            "mattis_bardeen.sigma_real_axis_below_gap_calls": (
                counts["real_axis_below_gap"] / n_ops, "count"),
            "mattis_bardeen.sigma_real_axis_self_s": (
                self_s("mattis_bardeen.sigma_real_axis"), "s"),
            "mattis_bardeen.sigma_oracle_calls": (calls("mattis_bardeen.sigma_oracle"), "count"),
            "mattis_bardeen.sigma_oracle_self_s": (self_s("mattis_bardeen.sigma_oracle"), "s"),
            "impedance.surface_impedance_calls": (
                calls("impedance.surface_impedance"), "count"),
            "impedance.surface_impedance_self_s": (
                self_s("impedance.surface_impedance"), "s"),
            "impedance.epsilon_calls": (calls("impedance.epsilon"), "count"),
            "impedance.kk_parts_calls": (calls("impedance.kk_parts"), "count"),
            "impedance.kk_parts_self_s": (self_s("impedance.kk_parts"), "s"),
            "modes.fixed_point_calls": (calls("modes.fixed_point_eigenfrequency"), "count"),
            "modes.fixed_point_self_s": (self_s("modes.fixed_point_eigenfrequency"), "s"),
            "modes.rhs_evals_per_mode": (statistics.mean(rhs) if rhs else 0.0, "count"),
            "modes.rhs_evals_max": (max(rhs, default=0), "count"),
            "modes.unique_fixed_point_ratio": (
                distinct / len(fixed_points) if fixed_points else 1.0, "ratio"),
            "modes.gap_restarts": (counts["gap_restarts"] / n_ops, "count"),
            "modes.resonator_modes_calls": (calls("modes.resonator_modes"), "count"),
            "modes.secular_roots_self_s": (self_s("modes.secular_roots"), "s"),
            "modes.greens_function_calls": (calls("modes.greens_function"), "count"),
            "modes.greens_function_self_s": (self_s("modes.greens_function"), "s"),
            "lightmatter.report_calls": (calls("lightmatter.lamb_shift_report"), "count"),
            "lightmatter.report_self_s": (self_s("lightmatter.lamb_shift_report"), "s"),
            "lightmatter.spectral_density_self_s": (
                self_s("lightmatter.spectral_density"), "s"),
            "cli.startup_s": (
                statistics.mean(lat - main for _, main, lat, _ in cli) if cli else 0.0, "s"),
            "cli.load_config_s": (per_name["cli.load_run_config"][1] / n_ops, "s"),
            "cli.main_self_s": (self_s("cli.main"), "s"),
            "cli.bytes_written": (
                statistics.mean(b for *_, b in cli) if cli else 0.0, "B"),
            "trace.ops_per_s": (self.scaled_ops_per_s(), "1/s"),
        }
        # times at nominal host speed, by the run's mean kernel time
        host = calibration.NOMINAL_S / statistics.fmean(self.kernel_s)
        return {k: (v * host, u) if u == "s" else (v, u) for k, (v, u) in metrics.items()}

    def write_trace(self):
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{self.name}-seed{self.seed}.json"
        self.tracer.dump(path, {"workload": self.name, "seed": self.seed,
                                "children": self.child_spans})
        return path


def run_one(name, seed, seconds, trace, corrupt) -> dict:
    run = Run(name, seed, seconds, trace, corrupt)
    run.execute()
    if trace:
        metrics = run.per_layer()
        path = run.write_trace()
        print(f"# {name}: trace written to {path.relative_to(ROOT)}")
    else:
        metrics = run.end_to_end()
    print(f"# {name} (seed {seed}): {len(run.latencies)} timed ops in {run.passes} passes, "
          f"ops_attempted {run.attempted}, ops_failed {run.failed}")
    for key, (value, unit) in metrics.items():
        note = f"  ({run.tail_note})" if key == "op_tail_s" else ""
        print(f"{name:18s} {key:46s} {value:.6g} {unit}{note}")
    if not trace:
        for key, (value, unit) in run.wall_clock().items():
            if value is not None:
                print(f"{name:18s} {key:46s} {value:.6g} {unit}")
    for line in run.errors[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb the stored references, so that their ops count as failed")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_one(n, args.seed, args.seconds, bool(args.trace), args.corrupt_reference)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:  # every workload: metrics keyed "<workload>.<metric>"
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
