"""qasmtrans benchmark: a closed loop over one workload, through the CLI.

    python3 perfbench/run.py --workload deep_line21 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/` of that
checkout. One client in one process sends each operation only after the
previous one has returned (`nproc` is 2 on the reference machine, and the
benchmark starts no threads). An operation is one in-process call of the
documented interface: `qasmtrans.cli.main([...])` for compile,
`--space-share` and `simulate`, and `qasmtrans.synthesize_ashn` for pulse
synthesis. The inputs are QASM and device files made from `--seed` by
`gen.py`; the program sees nothing else.

A run first measures set-up in fresh interpreters, then loops over the
workload's jobs in whole passes for about `--seconds` (at least one pass),
then checks every output outside the timed region (`check.py`). With
`--trace 1` it runs one pass untraced and one pass traced (`spans.py`)
instead, and reports per-layer metrics and the tracing overhead.

The report goes to standard error and to `perfbench/.out/`; the last line
of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import check  # noqa: E402
import gen  # noqa: E402
from check import CheckFailed  # noqa: E402
from spans import Tracer, install  # noqa: E402

try:
    import qasmtrans  # noqa: E402
    import qasmtrans.cli  # noqa: E402
    IMPORT_ERROR = None
except ImportError as exc:
    qasmtrans, IMPORT_ERROR = None, exc

SETUP_RUNS = 31
SHAPE_SEED = 0                 # fixed stream for circuit shapes; see adaptive_hh127
SHARE_OCCUPANCY_CAP = 18       # qubits of toronto27; see README.md on GrowthStuck
PROBE_BATCHES = 24
SYNTH_BUDGET = 300
# coupling (rad/ns) that realizes a 40 ns iSWAP under a flat-top envelope with
# 10 ns ramps, as the pulse library derives it for the chain7 device
SYNTH_G = (math.pi / 2) / 30.0
CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


NOT_GATES = ("OPENQASM", "include", "qreg", "creg", "measure", "barrier")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# inputs on disk
# ---------------------------------------------------------------------------

class Device:
    def __init__(self, path: Path, doc: dict):
        self.path = str(path)
        self.basis = doc["basis"]
        self.cal = check.Calibration(doc)
        path.write_text(gen.dump_device(doc))


class Source:
    """An input circuit on disk. It is read back only for checking, so the
    benchmark holds no parsed copy while operations are timed."""

    def __init__(self, path: Path, text: str, num_qubits: int):
        self.path = str(path)
        self.num_qubits = num_qubits
        self.gates = sum(1 for ln in text.splitlines()
                         if ln.endswith(";") and not ln.startswith(NOT_GATES))
        path.write_text(text)

    @property
    def prog(self) -> check.Program:
        return check.read_qasm(Path(self.path).read_text())


class Outcome:
    """What one executed operation left behind."""

    def __init__(self, op, prefix: str, seconds: float, error: str | None, value=None):
        self.op, self.prefix, self.seconds, self.error, self.value = op, prefix, seconds, error, value
        self.digest = None
        self.quality = None   # (two-qubit gates, duration ns, -ln ESP)
        self.notes: list[str] = []


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def call_cli(argv) -> str | None:
    """Run the CLI in-process; return None on success or a one-line error."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = qasmtrans.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:   # an uncaught exception is an operation failure
        return f"{type(exc).__name__}: {exc}"
    if rc != 0:
        lines = [ln for ln in err.getvalue().splitlines() if ln.strip()]
        return f"exit {rc}: {lines[-1] if lines else ''}"
    return None


def _summary_digest(path: str) -> str:
    doc = json.loads(Path(path).read_text())
    doc.pop("timings_ms", None)
    return json.dumps(doc, sort_keys=True)


class Compile:
    kind = "compile"

    def __init__(self, src: Source, dev: Device, flags=(), mode="state", pulse=False):
        self.src, self.dev, self.flags, self.mode, self.pulse = src, dev, list(flags), mode, pulse

    def execute(self, prefix: str, ctx: dict):
        argv = ["-i", self.src.path, "-d", self.dev.path, "-b", self.dev.basis,
                *self.flags, "-o", prefix + ".qasm"]
        if self.pulse:
            argv += ["--pulse", prefix + ".pulse.json"]
            ctx.setdefault("schedule", prefix + ".pulse.json")
        t0 = time.perf_counter()
        error = call_cli(argv)
        return time.perf_counter() - t0, error, None

    def outputs(self, out: Outcome) -> str:
        prefix = out.prefix
        text = Path(prefix + ".qasm").read_text() + _summary_digest(prefix + ".qasm.summary.json")
        if self.pulse:
            text += Path(prefix + ".pulse.json").read_text()
        return text

    def check(self, out: Outcome, seed: int):
        prefix = out.prefix
        prog = check.read_qasm(Path(prefix + ".qasm").read_text())
        summary = json.loads(Path(prefix + ".qasm.summary.json").read_text())
        cal = self.dev.cal
        check.check_compliance(prog, self.dev.basis, cal.edges, cal.num_qubits)
        initial, final = summary["initial_layout"], summary["final_layout"]
        src = self.src.prog
        check.check_measurements(src, prog, final)
        if self.mode == "gf2":
            check.check_gf2(src, prog, initial, final)
        elif self.mode == "state" and not check.check_statevector(src, prog, initial, final,
                                                                   seed=seed):
            out.notes.append("statevector_skipped")
        if summary.get("verified") is None and "--verify" in self.flags:
            out.notes.append("verify_declined")
        duration = cal.duration_ns(prog)
        if self.pulse:
            duration = check_schedule(prefix + ".pulse.json")
        out.quality = (prog.two_qubit_count(), duration, cal.nlog_esp(prog))


def check_schedule(path: str) -> float:
    """Events on one channel never overlap; returns the makespan in ns."""
    doc = json.loads(Path(path).read_text())
    busy: dict[str, float] = {}
    makespan = 0.0
    for ev in sorted(doc["events"], key=lambda e: e["t_start_ns"]):
        ch = json.dumps(ev["channel"], sort_keys=True)
        end = ev["t_start_ns"] + ev["duration_ns"]
        if ev["t_start_ns"] < busy.get(ch, -1.0) - 1e-9:
            raise CheckFailed(f"overlapping pulses on {ch}")
        busy[ch] = end
        makespan = max(makespan, end)
    return makespan


class Share:
    kind = "share"

    def __init__(self, srcs: list[Source], dev: Device, flags=()):
        self.srcs, self.dev, self.flags = srcs, dev, list(flags)

    def execute(self, prefix: str, ctx: dict):
        argv = ["--space-share", *[s.path for s in self.srcs], "-d", self.dev.path,
                "-b", self.dev.basis, *self.flags, "-o", prefix + ".qasm"]
        t0 = time.perf_counter()
        error = call_cli(argv)
        return time.perf_counter() - t0, error, None

    def outputs(self, out: Outcome) -> str:
        prefix = out.prefix
        return (Path(prefix + ".qasm").read_text() + Path(prefix + ".qasm.regions.json").read_text()
                + _summary_digest(prefix + ".qasm.summary.json"))

    def check(self, out: Outcome, seed: int):
        prog = check.read_qasm(Path(out.prefix + ".qasm").read_text())
        reports = json.loads(Path(out.prefix + ".qasm.regions.json").read_text())
        cal = self.dev.cal
        check.check_compliance(prog, self.dev.basis, cal.edges, cal.num_qubits)
        by_file = {r["circuit_file"]: set(r["qubits"]) for r in reports}
        regions = [by_file.get(s.path, set()) for s in self.srcs]
        check.check_regions(regions, [s.num_qubits for s in self.srcs], cal.adj)
        owner = {q: i for i, reg in enumerate(regions) for q in reg}
        if any(q not in owner for q in range(prog.num_qubits)
               if any(q in g[2] for g in prog.gates)):
            raise CheckFailed("a gate acts outside every region")
        offset = 0
        for i, source in enumerate(self.srcs):
            src = source.prog
            sub_gates = [g for g in prog.gates if owner.get(g[2][0]) == i]
            if any(owner.get(q) != i for g in sub_gates for q in g[2]):
                raise CheckFailed("a two-qubit gate joins two regions")
            ncl = src.num_qubits
            meas = {c - offset: q for q, c in prog.measurements if offset <= c < offset + ncl}
            offset += ncl
            final = [meas.get(c) for c in range(ncl)]
            if None in final or any(q not in regions[i] for q in final):
                raise CheckFailed("measurements not kept inside the region")
            sub = check.Program(prog.num_qubits, sub_gates,
                                [(final[v], c) for v, c in src.measurements])
            check.check_statevector(src, sub, None, final, qubits=regions[i])
        out.quality = (prog.two_qubit_count(), cal.duration_ns(prog), cal.nlog_esp(prog))


class Simulate:
    kind = "simulate"

    def __init__(self, dev: Device):
        self.dev = dev

    def execute(self, prefix: str, ctx: dict):
        schedule = ctx.get("schedule")
        if schedule is None or not Path(schedule).exists():
            return 0.0, "no schedule from the compile step", None
        t0 = time.perf_counter()
        error = call_cli(["simulate", schedule, "-d", self.dev.path, "-o", prefix + ".sim.json"])
        return time.perf_counter() - t0, error, None

    def outputs(self, out: Outcome) -> str:
        return Path(out.prefix + ".sim.json").read_text()

    def check(self, out: Outcome, seed: int):
        res = json.loads(Path(out.prefix + ".sim.json").read_text())
        if not res["trace_error"] <= 1e-8:
            raise CheckFailed(f"trace error {res['trace_error']:.2e} > 1e-8")
        if not 0.0 < res["final_fidelity"] <= 1.0 + 1e-9:
            raise CheckFailed(f"fidelity {res['final_fidelity']} out of (0, 1]")
        out.value = res["final_fidelity"]


class Synthesize:
    kind = "synth"

    def execute(self, prefix: str, ctx: dict):
        t0 = time.perf_counter()
        try:
            entry = qasmtrans.synthesize_ashn(CX, g=SYNTH_G, budget=SYNTH_BUDGET, seed=0, max_drive=0.5)
        except Exception as exc:   # DidNotConverge or a defect: an operation failure
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}", None
        dt = time.perf_counter() - t0
        p = entry.params
        return dt, None, (p.omega1, p.omega2, p.delta, p.g, p.t_ns, entry.fidelity)

    def outputs(self, out: Outcome) -> str:
        return repr(out.value)

    def check(self, out: Outcome, seed: int):
        if not out.value[-1] >= 0.999:
            raise CheckFailed(f"synthesis fidelity {out.value[-1]:.6f} < 0.999")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, jobs, warm, probes=(), synth_warm=False):
        self.jobs = jobs              # [[op, ...], ...]: one pass, in order
        self.warm = warm              # CLI argv lists run once before timing
        self.probes = list(probes)    # traced-only space-share probes
        self.synth_warm = synth_warm  # first optimizer call imports scipy.optimize

    def warm_argv(self, out: str) -> list[list[str]]:
        return [[a.replace("{out}", out) for a in argv] for argv in self.warm]


def _warm_inputs(d: Path, basis: str, flags=(), share=False, pulse=False) -> list[list[str]]:
    """Tiny inputs that take each operation kind of a workload through its
    first call, so lazy imports and caches are paid for in set-up."""
    dev = Device(d / f"warm-{basis}.json", gen.device_json("line4", 4, gen.line_edges(4), basis))
    a = Source(d / "warm.qasm", "\n".join(gen.HEADER + [
        "qreg q[2];", "creg c[2];", "h q[0];", "cx q[0],q[1];",
        "measure q[0] -> c[0];", "measure q[1] -> c[1];"]) + "\n", 2)
    out = "{out}-" + basis
    argv = [["-i", a.path, "-d", dev.path, "-b", basis, *flags, "-o", out + ".qasm"]]
    if pulse:
        argv[0] += ["--pulse", out + ".pulse.json"]
        argv.append(["simulate", out + ".pulse.json", "-d", dev.path, "-o", out + ".sim.json"])
    if share:
        argv.append(["--space-share", a.path, a.path, "-d", dev.path, "-b", basis, *flags,
                     "-o", out + "-share.qasm"])
    return argv


def deep_line21(seed: int, d: Path) -> Workload:
    dev = Device(d / "line21.json", gen.device_json("line21", 21, gen.line_edges(21), "ibmq"))
    rng = gen.rng_for(seed, 1)
    jobs = [[Compile(Source(d / f"deep{i}.qasm", gen.deep_line(rng), 21), dev, mode="none")]
            for i in range(6)]
    return Workload(jobs, _warm_inputs(d, "ibmq"))


def random_hh127(seed: int, d: Path) -> Workload:
    dev = Device(d / "hh127.json", gen.device_json(
        "heavyhex127", 127, gen.heavy_hex_127_edges(), "ibmq", rng=gen.rng_for(seed, 2, 0)))
    rng = gen.rng_for(seed, 2, 1)
    jobs = [[Compile(Source(d / f"rand{i}.qasm", gen.random_cx(rng, 127, 1000), 127), dev,
                     mode="gf2")]
            for i in range(8)]
    return Workload(jobs, _warm_inputs(d, "ibmq"))


def _share_sizes(rng, lo: int, hi: int) -> list[int]:
    """2-6 circuits of 3-10 qubits whose total lies in [lo, hi]."""
    while True:
        sizes = [int(rng.integers(3, 11)) for _ in range(int(rng.integers(2, 7)))]
        if lo <= sum(sizes) <= hi:
            return sizes


def adaptive_hh127(seed: int, d: Path) -> Workload:
    hh = Device(d / "hh127.json", gen.device_json(
        "heavyhex127", 127, gen.heavy_hex_127_edges(), "rigetti", rng=gen.rng_for(seed, 3, 0)))
    tor = Device(d / "toronto27.json", gen.device_json(
        "toronto27", 27, gen.TORONTO_EDGES, "ibmq", rng=gen.rng_for(seed, 3, 1)))
    rng = gen.rng_for(seed, 3, 2)
    # circuit sizes and CX patterns come from one fixed stream: embedding
    # enumeration cost swings by orders of magnitude with the routed
    # interaction graph, and a per-seed draw of 40 circuits made the medians
    # move by 15-25% between seeds
    shape = gen.rng_for(SHAPE_SEED, 3)
    sizes = [int(n) for n in shape.permutation(np.repeat(np.arange(3, 11), 5))]
    flags = ["--noise-adaptive", "--verify"]
    compiles = [Compile(Source(d / f"ad{i}.qasm", gen.random_measured(
        rng, n, int(shape.integers(4 * n, 6 * n + 1)), shape=shape), n), hh, flags)
        for i, n in enumerate(sizes)]

    def batch(tag: str, sizes: list[int]) -> Share:
        srcs = [Source(d / f"{tag}-{j}.qasm", gen.random_measured(rng, n, 5 * n, shape=shape), n)
                for j, n in enumerate(sizes)]
        return Share(srcs, tor, ["--noise-adaptive"])

    jobs = []
    for i, op in enumerate(compiles):
        jobs.append([op])
        if i % 4 == 3:
            jobs.append([batch(f"share{i}", _share_sizes(shape, 0, SHARE_OCCUPANCY_CAP))])
    probes = []
    for i in range(PROBE_BATCHES):
        total = SHARE_OCCUPANCY_CAP + 1 + i % (27 - SHARE_OCCUPANCY_CAP)
        probes.append(batch(f"probe{i}", _share_sizes(shape, total, total)))
    warm = (_warm_inputs(d, "rigetti", flags)
            + _warm_inputs(d, "ibmq", ["--noise-adaptive"], share=True))
    return Workload(jobs, warm, probes)


def pulse_chain7(seed: int, d: Path) -> Workload:
    dev = Device(d / "chain7.json", gen.device_json(
        "chain7", 7, gen.line_edges(7), "rigetti_pulse", t1_us=20.0, t2_us=15.0))
    rng = gen.rng_for(seed, 4)
    # four compiles per job give the 2 ms compile median enough samples;
    # the first schedule of each job is simulated
    jobs = [[Compile(Source(d / f"pulse{i}-{k}.qasm", gen.brickwork(rng, 3), 4), dev,
                     pulse=True)
             for k in range(4)] + [Simulate(dev), Synthesize()] for i in range(8)]
    return Workload(jobs, _warm_inputs(d, "rigetti_pulse", pulse=True), synth_warm=True)


WORKLOADS = {
    "deep_line21": deep_line21,
    "random_hh127": random_hh127,
    "adaptive_hh127": adaptive_hh127,
    "pulse_chain7": pulse_chain7,
}


# ---------------------------------------------------------------------------
# set-up, closed loop and checks
# ---------------------------------------------------------------------------

_SETUP_CHILD = """
import json, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
t0 = time.perf_counter()
import qasmtrans, qasmtrans.cli
t1 = time.perf_counter()
import run
t2 = time.perf_counter()
run.warm_up(json.loads(sys.argv[3]), sys.argv[4] == "1")
print(repr(t1 - t0 + time.perf_counter() - t2))
"""


def warm_up(argvs: list[list[str]], synth: bool):
    """First calls of every operation kind, so that lazy imports and caches
    are paid for before timing."""
    for argv in argvs:
        error = call_cli(argv)
        if error:
            raise RuntimeError(f"warm-up {argv[:2]} failed: {error}")
    if synth:
        qasmtrans.optimize_pulse(lambda x: -float(x[0] ** 2), [(-1.0, 1.0)], budget=4)


def measure_setup(wl: Workload, d: Path) -> list[float]:
    """Fresh-interpreter set-up: import plus the first call of every operation
    kind the workload uses. Interpreter start-up and the import of the
    benchmark's own modules are not counted."""
    times = []
    for i in range(SETUP_RUNS):
        argv = json.dumps(wl.warm_argv(str(d / f"setup{i}")))
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE), argv,
                               "1" if wl.synth_warm else "0"],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_jobs(wl: Workload, d: Path, seconds: float, tag: str, tracer=None):
    """Closed loop: one job after another, in whole passes over the
    workload's jobs, so every run times the same mix of jobs whatever its
    speed. It stops at the pass boundary nearest to `seconds`, after at
    least one pass. Returns [(pass, job index, [Outcome, ...])]."""
    done = []
    t_start = time.perf_counter()
    n_pass = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if n_pass > 0 and elapsed + 0.5 * elapsed / n_pass >= seconds:
            break
        for j, job in enumerate(wl.jobs):
            ctx: dict = {}
            outs = []
            for k, op in enumerate(job):
                prefix = str(d / f"{tag}{n_pass}-j{j}-o{k}")
                # start every operation from a collected heap, as a fresh CLI
                # process would, instead of paying for earlier operations' garbage
                gc.collect()
                span = tracer.begin(f"op.{op.kind}") if tracer else None
                dt, error, value = op.execute(prefix, ctx)
                if tracer:
                    tracer.end(span)
                outs.append(Outcome(op, prefix, dt, error, value))
            done.append((n_pass, j, outs))
        n_pass += 1
    return done


def check_all(done, first: dict):
    """Check each operation's output once; a repeat must match the first
    output of the same operation byte for byte (the determinism contract).
    Paths inside the run directory are hashed relative to it, so that runs
    of the same code and seed give the same digest."""
    for _pass, j, outs in done:
        for k, o in enumerate(outs):
            if o.error:
                continue
            try:
                run_dir = str(Path(o.prefix).parent) + os.sep
                o.digest = sha(o.op.outputs(o).replace(run_dir, ""))
                ref = first.get((j, k))
                if ref is None:
                    o.op.check(o, seed=j)
                    first[(j, k)] = o
                elif ref.digest != o.digest:
                    raise CheckFailed("output differs from the first run of the same input")
            except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                o.error = f"check: {exc}"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else None


def tail(xs):
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    n = len(xs)
    if n < 11:
        return None, None, n
    i = n - 11
    return sorted(xs)[i], 100.0 * (i + 1) / n, n


def summarize(done, first: dict, setup: list[float], rss_mb: float) -> dict:
    ops = [o for _p, _j, outs in done for o in outs]
    ok = [o for o in ops if not o.error]
    by_kind = {kind: [o.seconds for o in ok if o.op.kind == kind]
               for kind in ("compile", "share", "simulate", "synth")}
    jobs = [sum(o.seconds for o in outs) for _p, _j, outs in done
            if not any(o.error for o in outs)]
    compiles = [o for o in ok if o.op.kind == "compile"]
    refs = [first[key] for key in sorted(first)]
    quality = [o.quality for o in refs if o.quality]
    sims = [o.value for o in refs if o.op.kind == "simulate"]
    synths = [o.value[-1] for o in refs if o.op.kind == "synth"]
    t_val, t_pct, t_n = tail(by_kind["compile"])
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(ok),
        "failures": sorted({o.error for o in ops if o.error})[:10],
        "setup_s": median(setup),
        "setup_samples": setup,
        "job_s.p50": median(jobs),
        "job_s.n": len(jobs),
        "compile_s.p50": median(by_kind["compile"]),
        "compile_s.tail": t_val, "compile_s.tail_pct": t_pct, "compile_s.n": t_n,
        "gates_per_s": (sum(o.op.src.gates for o in compiles) / sum(o.seconds for o in compiles)
                        if compiles else None),
        "share_s.p50": median(by_kind["share"]), "share_s.n": len(by_kind["share"]),
        "sim_s.p50": median(by_kind["simulate"]), "sim_s.n": len(by_kind["simulate"]),
        "synth_s.p50": median(by_kind["synth"]), "synth_s.n": len(by_kind["synth"]),
        "peak_rss_mb": rss_mb,
        "fail_ratio": (len(ops) - len(ok)) / len(ops),
        "out_2q_gates": sum(q[0] for q in quality),
        "out_duration_us": sum(q[1] for q in quality) / 1000.0,
        "out_nlog_esp": sum(q[2] for q in quality),
        "sim_fidelity": statistics.fmean(sims) if sims else None,
        "synth_fidelity": min(synths) if synths else None,
        "digest": sha("".join(o.digest for o in refs)),
        "distinct_outputs": len(refs),
        "statevector_skipped": sum("statevector_skipped" in o.notes for o in refs),
        "verify_declined": sum("verify_declined" in o.notes for o in refs),
    }


# name -> unit, in the order of the report; the first six are gated
END_TO_END = {
    "setup_s": "s", "job_s.p50": "s", "peak_rss_mb": "MB",
    "out_2q_gates": "count", "out_duration_us": "us", "out_nlog_esp": "nats",
    "compile_s.p50": "s", "gates_per_s": "gates/s", "compile_s.tail": "s", "share_s.p50": "s",
    "sim_s.p50": "s", "synth_s.p50": "s", "fail_ratio": "ratio", "sim_fidelity": "1",
    "synth_fidelity": "1",
}
GATED = list(END_TO_END)[:6]

# per-layer metric -> unit; a `<span>_s` metric is the self time of that span
PER_LAYER = {
    "qasm.tokenize_s": "s", "qasm.parse_s": "s", "qasm.emit_s": "s", "qasm.tokens": "count",
    "qasm.bytes_in": "bytes", "qasm.bytes_out": "bytes", "gates.matrix_calls": "count",
    "ir.decompose_s": "s", "ir.stats_s": "s", "device.load_s": "s",
    "route.sabre_s": "s", "route.swaps": "count", "route.swaps_per_2q": "ratio",
    "route.gates_out": "count",
    "place.select_s": "s", "place.enumerate_s": "s", "place.critical_path_s": "s",
    "place.embeddings": "count", "place.truncated_ratio": "ratio",
    "lowering.lower_s": "s", "lowering.gates_out": "count",
    "partition.partition_s": "s", "partition.space_share_s": "s", "partition.stuck_ratio": "ratio",
    "oracle.verify_s": "s", "oracle.declined": "count",
    "pulse.build_schedule_s": "s", "pulse.events": "count", "pulse.simulate_schedule_s": "s",
    "pulse.synthesize_ashn_s": "s",
    "pulsesim.lindblad_s": "s", "pulsesim.hamiltonian_evals": "count",
    "pulsesim.propagate_s": "s", "pulsesim.optimize_s": "s", "pulsesim.objective_evals": "count",
    "kak.decompose_s": "s", "kak.calls": "count",
    "cli.self_s": "s", "trace.overhead_ratio": "ratio",
}


# per-layer metric -> the span or counter of `spans.py` it is read from,
# where that is not the metric itself or, for `<span>_s`, the span
READ_FROM = {
    "qasm.tokens": "qasm.tokenize", "qasm.bytes_in": "qasm.tokenize",
    "qasm.bytes_out": "qasm.emit",
    "route.swaps": "route.sabre", "route.swaps_per_2q": "route.sabre",
    "route.gates_out": "route.sabre",
    "place.embeddings": "place.enumerate", "place.truncated_ratio": "place.enumerate",
    "lowering.gates_out": "lowering.lower", "partition.stuck_ratio": "partition.partition",
    "oracle.declined": "oracle.verify", "pulse.events": "pulse.build_schedule",
    "pulsesim.objective_evals": "pulsesim.optimize", "kak.calls": "kak.decompose",
}


def read_from(metric: str) -> str:
    return READ_FROM.get(metric, metric[:-2] if metric.endswith("_s") else metric)


def _ratio(counts: dict, num: str, den: str) -> float:
    return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0


def per_layer(tracer, stuck_ratio: float, overhead: float, broken) -> dict:
    """Every per-layer metric; None (n/a) where its span or counter is broken."""
    self_t = tracer.self_times()
    c = tracer.counts
    values = {f"{name}_s": t for name, t in self_t.items()}
    values.update(c)
    values.update({
        "route.swaps_per_2q": _ratio(c, "route.swaps", "route.two_qubit_in"),
        "place.truncated_ratio": _ratio(c, "place.truncated", "place.enumerations"),
        "oracle.declined": c.get("oracle.verify.raised.TooManyQubits", 0),
        "cli.self_s": sum(t for name, t in self_t.items() if name.startswith("op.")),
        "partition.stuck_ratio": stuck_ratio,
        "trace.overhead_ratio": overhead,
    })
    return {m: {"value": None if read_from(m) in broken else values.get(m, 0), "unit": unit}
            for m, unit in PER_LAYER.items()}


def layer_shares(tracer) -> list[str]:
    """Self time of each layer under each operation kind, and per module."""
    lines = []
    totals = tracer.totals()
    for kind in sorted(n for n in totals if n.startswith("op.")):
        total = totals[kind]
        layers = {("cli" if name == kind else name): t
                  for name, t in tracer.self_times(under=kind).items()}
        modules: dict[str, float] = {}
        for layer, t in layers.items():
            modules[layer.split(".")[0]] = modules.get(layer.split(".")[0], 0.0) + t
        lines.append(f"  {kind}: {total:.3f} s over the traced pass")
        lines += [f"    {layer:<26} {t:9.3f} s {100 * t / total:5.1f}%"
                  for layer, t in sorted(layers.items(), key=lambda kv: -kv[1])
                  if t > 0.001 * total]
        lines.append("    by module: " + ", ".join(
            f"{m} {100 * t / total:.1f}%" for m, t in sorted(modules.items(), key=lambda kv: -kv[1])
            if t > 0.001 * total))
    return lines


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

STUCK = "partition.partition.raised.GrowthStuck"


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _report_lines(name: str, s: dict, run_dir: Path) -> list[str]:
    lines = [f"workload {name}: {s['attempted']} ops attempted, {s['failed']} failed; "
             f"outputs written to fresh paths under {run_dir}"]
    for metric, unit in END_TO_END.items():
        extra = ""
        if metric == "compile_s.tail":
            extra = (f"  (p{s['compile_s.tail_pct']:.0f} of {s['compile_s.n']})"
                     if s[metric] is not None else f"  (n/a: {s['compile_s.n']} samples, needs 11)")
        elif metric.endswith(".p50"):
            extra = f"  (n={s[metric[:-4] + '.n']})"
        elif metric == "setup_s":
            extra = f"  (median of {len(s['setup_samples'])} fresh interpreters)"
        gated = "  [gated]" if metric in GATED else ""
        lines.append(f"  {metric:<16} {_fmt(s[metric]):>12} {unit}{extra}{gated}")
    lines.append(f"  output digest {s['digest']} over {s['distinct_outputs']} distinct outputs")
    lines.append(f"  statevector checks skipped (> {check.MAX_STATE_QUBITS} qubits): "
                 f"{s['statevector_skipped']}; --verify declined: {s['verify_declined']}")
    lines += [f"  failure: {f}" for f in s["failures"]]
    return lines


def timed(args, run_dir: Path):
    wl = WORKLOADS[args.workload](args.seed, run_dir)
    setup = measure_setup(wl, run_dir)
    warm_up(wl.warm_argv(str(run_dir / "warm-main")), wl.synth_warm)
    done = run_jobs(wl, run_dir, args.seconds, "p")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first: dict = {}
    check_all(done, first)
    s = summarize(done, first, setup, rss_mb)
    correct = s["failed"] == 0 and all(s[m] is not None for m in GATED)
    metrics = {m: {"value": s[m] if s[m] is not None else 0.0, "unit": END_TO_END[m]}
               for m in GATED}
    result = {"correct": correct, "attempted": s["attempted"], "failed": s["failed"],
              "metrics": metrics}
    return result, s, _report_lines(args.workload, s, run_dir)


def traced(args, run_dir: Path):
    wl = WORKLOADS[args.workload](args.seed, run_dir)
    warm_up(wl.warm_argv(str(run_dir / "warm-main")), wl.synth_warm)
    plain = run_jobs(wl, run_dir, 0, "u")
    tracer = Tracer()
    undo = install(tracer)
    try:
        spanned = run_jobs(wl, run_dir, 0, "t", tracer)
    finally:
        undo()
    # full-occupancy space-share batches, outside the workload's ops: a
    # GrowthStuck refusal is what they measure, not a failed operation
    probe = Tracer()
    undo = install(probe)
    probe_done, stuck = [], 0
    try:
        for i, op in enumerate(wl.probes):
            before = probe.counts.get(STUCK, 0)
            prefix = str(run_dir / f"probe{i}")
            dt, error, value = op.execute(prefix, {})
            if probe.counts.get(STUCK, 0) > before:
                stuck += 1
            else:
                probe_done.append((0, len(wl.jobs) + i, [Outcome(op, prefix, dt, error, value)]))
    finally:
        undo()
    first: dict = {}
    for done in (plain, spanned, probe_done):
        check_all(done, first)
    t_plain = sum(o.seconds for _p, _j, outs in plain for o in outs)
    t_spanned = sum(o.seconds for _p, _j, outs in spanned for o in outs)
    overhead = t_spanned / t_plain - 1.0
    # a binding site that no longer exists, or a layer whose results changed
    # shape, makes its metrics unreadable: n/a and an incorrect run, never 0
    broken = {**probe.broken(), **tracer.broken()}
    metrics = per_layer(tracer, stuck / len(wl.probes) if wl.probes else 0.0, overhead, broken)
    s = summarize(plain + spanned + probe_done, first, [], 0.0)
    result = {"correct": s["failed"] == 0 and not broken, "attempted": s["attempted"],
              "failed": s["failed"], "metrics": metrics}
    lines = [f"workload {args.workload}, traced: {s['attempted']} ops attempted, "
             f"{s['failed']} failed; untraced pass {t_plain:.3f} s, traced pass "
             f"{t_spanned:.3f} s, tracing overhead {100 * overhead:.1f}%",
             f"  output digest {s['digest']} over {s['distinct_outputs']} distinct outputs"]
    lines += [f"  failure: {f}" for f in s["failures"]]
    lines += [f"  broken trace of {name}: {why}" for name, why in sorted(broken.items())]
    if wl.probes:
        lines.append(f"  space-share probes at {SHARE_OCCUPANCY_CAP + 1}-27 of 27 qubits: "
                     f"{stuck} of {len(wl.probes)} raised GrowthStuck")
    lines.append("  self time by layer, per operation kind:")
    lines += layer_shares(tracer)
    lines += [f"  {m:<28} {_fmt(v['value']):>12} {v['unit']}" for m, v in metrics.items()]
    spans_path = HERE / ".out" / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for row in tracer.rows():
            fh.write(json.dumps(row) + "\n")
    lines.append(f"  spans written to {spans_path}")
    s["per_layer"] = metrics
    return result, s, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if qasmtrans is None or Path(qasmtrans.__file__).resolve().parent != (SRC / "qasmtrans").resolve():
        why = IMPORT_ERROR or f"imported from {qasmtrans.__file__}"
        print(f"error: no qasmtrans package under {SRC} ({why}); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    out_root = HERE / ".out"
    run_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result, summary, lines = (traced if args.trace else timed)(args, run_dir)
    except RuntimeError as exc:   # set-up or warm-up failed: nothing can be measured
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    summary["result"] = result
    (out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, default=str) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
