"""Benchmark of rahecke: one closed-loop caller, one process per run.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see README.md for why each exists):

* ``classify`` -- in-process ``rahecke classify`` on random irreducible
  diagrams of rank 3-6 (growth and polys);
* ``haagerup`` -- in-process ``rahecke verify --suite haagerup`` on freshly
  labelled diagrams (the l2rep sphere-operator engine);
* ``exact``    -- exact Hecke, operator-identity and projection checks on small
  memoized balls (hecke, coxeter, exact l2rep, radial);
* ``balls``    -- cold ``enumeration.Ball`` builds of 24k-143k elements.

Set-up (imports, inputs, a diagram file and one untimed warm-up op) runs in
this process and, to time it, in five to nine fresh processes whose median
probe-corrected time is ``setup_s``.  The run then takes ops from the
workload's template list for ``--seconds`` and checks every output with the
workload's oracle.  A host-speed probe (``speed.py``) runs between ops, and
every time metric is corrected by it to the speed of a reference host, so
that the drift of a shared host does not read as a change in the program;
the report also gives the uncorrected figures.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs half the time untraced and then the same ops traced, and reports the
per-layer metrics plus the tracing overhead.  The last line of stdout is
the result object; the line before it is a report with the environment, the
run's composition and a digest of its outputs.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:       # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: set-up is timed in at least 5 and at most 9 fresh processes, adding
#: repeats after the fifth while the repeats so far took under 4 s
SETUP_REPEATS = (5, 9)
SETUP_BUDGET_S = 4.0
PROBE_SPAN = 2
DIGEST_PREFIX = 10
TRACE_LABEL_OFFSET = 1_000_000
#: Percentile reported as latency_tail_s, fixed per workload so runs stay
#: comparable (each report states how many ops lay beyond it).  Each leaves
#: at least ten ops beyond it in a 25 s run at the commit that defined the
#: benchmark.  exact uses p90, not p95: at p95 the slot-weighted tail is the
#: latency of a single slot and moved by 25% from seed to seed.
TAIL_PERCENTILE = {"classify": 70, "haagerup": 60, "exact": 90, "balls": 70}
#: Host-speed probe per workload (see ``speed``): haagerup's time is largely
#: sparse products, the others' pure Python.
PROBE_KIND = {"classify": "python", "haagerup": "python+array", "exact": "python",
              "balls": "python"}


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=10)
            if got.returncode == 0:
                commit = got.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "git_commit": commit,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the machine; (0, 0) where /proc/stat is
    missing.  Steal is time the hypervisor ran something else."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


class Stream:
    """Closed loop over the template list; records one entry per op.

    The list is blocks of ``block`` templates, each block one pass over the
    workload's cycle of slots; op i fills slot i % block.  ``probe``, when
    given, is the kind of host-speed probe (see ``speed``) run before the
    first op and after every op."""

    def __init__(self, op_cls, templates, workdir, tracer=None, probe=None, block=None):
        self.op_cls = op_cls
        self.probe = probe
        self.block = block or len(templates)
        self.templates = templates
        self.workdir = workdir
        self.tracer = tracer
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.ok: list[bool] = []
        self.slots: list[int] = []
        self.errors: list[str] = []
        self.kinds: Counter = Counter()
        self.ranks: Counter = Counter()
        self.lengths: Counter = Counter()
        self.elements: list[int] = []
        self.skipped = 0
        self.digest = hashlib.sha256()
        self.prefix_digest = ""
        self.cycle_rss_mb = None

    def run(self, seconds: float | None = None, count: int | None = None,
            label_offset: int = 0) -> None:
        begin = time.perf_counter()
        i = 0
        while (count is None and time.perf_counter() - begin < seconds) or \
                (count is not None and i < count):
            self.one(i, label_offset + i)
            i += 1

    def one(self, i: int, label: int) -> None:
        op = self.op_cls(self.templates[i % len(self.templates)], label, self.workdir)
        if self.probe and not self.probes:
            self.probes.append(speed.probe(self.probe))
        t0 = time.perf_counter()
        try:
            out = self.tracer.run_op(i, op.run) if self.tracer else op.run()
            err = None
        except Exception:
            err = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if self.probe:
            self.probes.append(speed.probe(self.probe))
        if err is None:
            ok, info, text = op.check(out)
            if not ok:
                err = f"{op.kind}: {info.get('reason')}"
            self.skipped += info.get("skipped", 0)
        else:
            text = ""
        self.latencies.append(t1 - t0)
        self.ok.append(err is None)
        self.slots.append(i % self.block)
        if err is not None and len(self.errors) < 5:
            self.errors.append(err)
        self.kinds[op.kind] += 1
        self.ranks[op.rank] += 1
        self.lengths.update(op.lengths)
        if op.elements:
            self.elements.append(op.elements)
        self.digest.update(f"{i}:{text}\n".encode())
        if len(self.ok) == DIGEST_PREFIX:
            self.prefix_digest = self.digest.hexdigest()
        if len(self.ok) == self.block:
            self.cycle_rss_mb = peak_rss_mb()

    @property
    def verified(self) -> int:
        return sum(self.ok)

    def corrected(self) -> list[float]:
        """Op latencies scaled to the reference host speed (see ``speed``)
        by the median of the PROBE_SPAN probes run right before and the
        PROBE_SPAN right after each op; the median keeps one probe that an
        interrupt hit from moving it."""
        p = self.probes
        return [x * speed.REF_S[self.probe]
                / statistics.median(p[max(0, i + 1 - PROBE_SPAN):i + 1 + PROBE_SPAN])
                for i, x in enumerate(self.latencies)]

    def _scored(self, raw: bool = False) -> list[tuple[float, int]]:
        # a failed op misses every latency limit
        lat = self.latencies if raw else self.corrected()
        return [(x if ok else math.inf, slot)
                for x, ok, slot in zip(lat, self.ok, self.slots)]

    def ops_per_s(self, raw: bool = False) -> float:
        """Verified ops per second at the workload's mix: the template slots
        that ran divided by the sum over them of each slot's median latency.
        Weighting by slot keeps the cut-off point of a timed run from
        changing the mix; the median keeps one interrupted op from moving
        it.  Corrected latencies unless ``raw``."""
        by_slot: dict[int, list[float]] = {}
        for x, slot in self._scored(raw):
            by_slot.setdefault(slot, []).append(x)
        return len(by_slot) / sum(statistics.median(v) for v in by_slot.values())

    def mix_quantile(self, level: float, raw: bool = False) -> float:
        """Latency quantile with each op weighted 1 / (ops of its slot), so
        every template slot counts equally, as in the stated mix.  Each op
        stands at the middle of its weight on the cumulative scale, and the
        quantile is interpolated linearly between neighbouring ops."""
        counts = Counter(self.slots)
        pairs = sorted((x, 1.0 / counts[slot]) for x, slot in self._scored(raw))
        total = sum(w for _, w in pairs)
        acc = 0.0
        prev = None
        for x, w in pairs:
            mid = (acc + w / 2) / total
            if mid >= level:
                if prev is None:
                    return x
                px, pmid = prev
                if math.isinf(x):
                    return x
                return px + (x - px) * (level - pmid) / (mid - pmid)
            prev = (x, mid)
            acc += w
        return pairs[-1][0]

    def latency_stats(self, tail_percentile: float, raw: bool = False) -> dict:
        tail = self.mix_quantile(tail_percentile / 100, raw)
        return {"p50": self.mix_quantile(0.5, raw), "tail": tail,
                "tail_percentile": tail_percentile, "samples": len(self.ok),
                "samples_beyond_tail": sum(1 for x, _ in self._scored(raw) if x > tail)}

    def probe_stats(self) -> dict:
        p = self.probes
        return {"kind": self.probe, "count": len(p), "median_s": statistics.median(p),
                "min_s": min(p), "max_s": max(p), "ref_s": speed.REF_S[self.probe]}

    def composition(self) -> dict:
        el = self.elements
        return {
            "ops": len(self.ok),
            "op_kinds": dict(sorted(self.kinds.items())),
            "rank_histogram": {str(k): v for k, v in sorted(self.ranks.items())},
            "l_values": {str(k): v for k, v in sorted(self.lengths.items())},
            "ball_sizes": ({"min": min(el), "median": statistics.median(el),
                            "max": max(el), "count": len(el)} if el else None),
            "boundary_flips_skipped": self.skipped,
            "digest_all": self.digest.hexdigest(),
            "digest_first_ops": min(len(self.ok), DIGEST_PREFIX),
            "digest_first": self.prefix_digest or self.digest.hexdigest(),
        }


def probe_setup(args, rep: int, kind: str) -> tuple[float, float]:
    """(wall time, probe-corrected time) of a fresh process that imports,
    generates the inputs, writes a diagram file and runs the warm-up op,
    then exits.  Host-speed probes run right before and right after it."""
    before = speed.probe(kind)
    t0 = time.perf_counter()
    got = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", "0", "--setup-only", str(rep + 1)],
                         capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - t0
    if got.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {got.stderr.strip()}")
    return elapsed, elapsed * speed.REF_S[kind] * 2 / (before + speed.probe(kind))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up once (warm-up labels offset by the value), print nothing, exit
    p.add_argument("--setup-only", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rahecke" / "__init__.py").is_file():
        sys.stderr.write(f"error: no rahecke sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}\n")
        return 2
    import_s = time.perf_counter() - T_START
    env = environment()
    op_cls, warmup = workloads.WORKLOADS[args.workload]
    base = ROOT / ".bench_work"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        templates = inputs.TEMPLATES[args.workload](args.seed)
        warm = Stream(op_cls, [warmup(templates)], workdir)
        warm.one(0, -1 - args.setup_only)
        if not warm.ok[0]:
            sys.stderr.write(f"error: warm-up op failed: {warm.errors}\n")
            return 1
        own_setup_s = import_s + time.perf_counter() - t0
        if args.setup_only:
            return 0
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, "import_s": import_s,
                  "own_setup_s": own_setup_s, "templates": len(templates),
                  "loop": "closed, one caller"}
        kind = PROBE_KIND[args.workload]
        speed.warm_up(kind)
        block = len(templates) // inputs.BLOCKS[args.workload]
        if args.trace == 0:
            # set-up time is the median of fresh processes, each timed from
            # its start to the end of its warm-up op
            setup_times = []
            begin = time.perf_counter()
            while len(setup_times) < SETUP_REPEATS[0] or (
                    len(setup_times) < SETUP_REPEATS[1]
                    and time.perf_counter() - begin < SETUP_BUDGET_S):
                setup_times.append(probe_setup(args, len(setup_times), kind))
            setup_s = statistics.median(c for _, c in setup_times)
            report["setup_repeats_s"] = [w for w, _ in setup_times]
            report["setup_repeats_corrected_s"] = [c for _, c in setup_times]
        ticks_at_start = cpu_ticks()
        if args.trace == 0:
            stream = Stream(op_cls, templates, workdir, probe=kind, block=block)
            stream.run(seconds=args.seconds)
            streams = [stream]
            tail_pct = TAIL_PERCENTILE[args.workload]
            lat = stream.latency_stats(tail_pct)
            metrics = {
                "ops_per_s": (stream.ops_per_s(), "1/s"),
                "latency_p50_s": (lat["p50"], "s"),
                "latency_tail_s": (lat["tail"], "s"),
                "setup_s": (setup_s, "s"),
                # after the first block of templates, so that how many ops a
                # fast or slow machine fits into the run (with caches that
                # grow per op) does not move it
                "peak_rss_mb": (stream.cycle_rss_mb or peak_rss_mb(), "MB"),
            }
            report["latency"] = lat
            raw = stream.latency_stats(tail_pct, raw=True)
            report["uncorrected"] = {"ops_per_s": stream.ops_per_s(raw=True),
                                     "latency_p50_s": raw["p50"],
                                     "latency_tail_s": raw["tail"],
                                     "setup_s": statistics.median(
                                         report["setup_repeats_s"])}
            report["speed_probes"] = stream.probe_stats()
            report["peak_rss_mb_at_end"] = peak_rss_mb()
            report["composition"] = stream.composition()
        else:
            import tracing

            plain = Stream(op_cls, templates, workdir, probe=kind, block=block)
            plain.run(seconds=args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            traced = Stream(op_cls, templates, workdir, tracer=tracer, probe=kind,
                            block=block)
            try:
                traced.run(count=len(plain.ok), label_offset=TRACE_LABEL_OFFSET)
            finally:
                tracer.uninstall()
            streams = [plain, traced]
            layer, info = tracer.metrics()
            layer["trace.ops_per_s_untraced"] = plain.ops_per_s()
            layer["trace.ops_per_s_traced"] = traced.ops_per_s()
            layer["trace.overhead"] = sum(traced.corrected()) / sum(plain.corrected()) - 1
            units = {name: unit for name, unit, _ in tracing.metric_names()}
            metrics = {name: (layer.get(name, 0), units[name]) for name in units}
            trace_path = base / f"trace-{args.workload}-seed{args.seed}.npz"
            tracer.write(trace_path)
            report.update(info)
            report["trace_file"] = str(trace_path.relative_to(ROOT))
            report["composition_untraced"] = plain.composition()
            report["composition"] = traced.composition()
        steal, total = (b - a for a, b in zip(ticks_at_start, cpu_ticks()))
        report["cpu_steal_share"] = steal / total if total else None
        attempted = sum(len(s.ok) for s in streams)
        failed = attempted - sum(s.verified for s in streams)
        report["failed_frac"] = failed / attempted
        report["errors"] = [e for s in streams for e in s.errors]
        for s in streams:
            for e in s.errors:
                sys.stderr.write(e + "\n")
        print(json.dumps({"report": report}, default=str))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
