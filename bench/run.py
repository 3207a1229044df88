"""The nilwitness benchmark: certificate throughput over Q and GF(p), CLI
command latency, and a traced per-layer run.

    python3 bench/run.py --workload lib-q --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --manifest      # rewrite BENCHMARK.json from the definitions below

The library is imported from the checkout's ``src/``; nothing is installed.
One process acts as one closed-loop client: each call or command starts
after the previous one has finished. Every output is checked with the
benchmark's own exact arithmetic (checks.py, exact.py) outside the timed
region. The last line of stdout is the JSON result; the lines before it
print the same metrics for a reader. README.md says why each workload
exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import exact
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

RUN_SECONDS = 30
MIN_SAMPLES = 100  # leaves at least 10 samples above p90
MIN_CLASS_SAMPLES = 20  # leaves at least 10 samples above a class median
MAX_STRETCH = 1.5  # a run ends at this multiple of --seconds even when short of samples
SETUP_PROBES = 15
COMMAND_TIMEOUT = 60
clock = time.perf_counter

# The calibration computation takes this long at the reference speed.
CAL_NOMINAL_S = 0.002


@dataclass(frozen=True)
class LibWorkload:
    """witness(M) then cert.verify() in this process, cycling through the nullities."""

    why: str
    p: int | None  # None is Q
    n: int
    nullities: tuple[int, ...]
    trace_cycles: int


@dataclass(frozen=True)
class CliWorkload:
    """A cycle of CLI sessions, one `python -m nilwitness.cli` process per command.

    Cycle items: ("session", p, n, rank), ("nonsingular", p, n) and
    ("not-nilpotent", p, n, rank).
    """

    why: str
    cycle: tuple
    trace_cycles: int


WORKLOADS = {
    "lib-q": LibWorkload(
        "library over Q, n=12, nullity 1-2: Fraction growth and the verify power chain dominate",
        p=None,
        n=12,
        # nullity 2 costs about 15% more; two of nullity 1 per cycle keep the
        # median inside the nullity-1 cluster and the p90 inside the other
        nullities=(1, 1, 2),
        trace_cycles=10,
    ),
    "lib-gfp": LibWorkload(
        "library over GF(1000003), n=16, nullity 1-8: word-size entries, so Scalar/Matrix overhead dominates",
        p=1000003,
        n=16,
        nullities=tuple(range(1, 9)),
        trace_cycles=2,
    ),
    "cli-gf2": CliWorkload(
        "CLI sessions over GF(2)/GF(3), n=40-48, index <= 7: start-up, text I/O and kernel mat-vecs dominate",
        cycle=(
            ("session", 2, 40, 6),
            ("session", 3, 40, 4),
            ("session", 2, 44, 5),
            ("session", 2, 48, 3),
            ("nonsingular", 2, 40),
            ("not-nilpotent", 3, 6, 3),
        ),
        trace_cycles=1,
    ),
}

# name, unit, better, bound
# Each bound is at least three times the widest spread (quartile distance
# over the median) seen in two sets of ten seeded runs, except op_p50_ms and
# verify_p50_ms: they sit at the largest bound allowed, because on cli-gf2
# they time commands that are mostly interpreter start-up, which the
# calibration tracks least well (spread up to 0.092).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.2),
    ("witness_p50_ms", "ms", "lower", 0.15),
    ("verify_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


# Spans that only the CLI workload reaches. On the library workloads their
# times are a constant 0, so only their call counts are metrics; a traced
# run prints their times (and cli.process_overhead_s) as readable lines.
CLI_ONLY_SPANS = (
    "witness.nilpotent_index",
    "witness.row_equivalent",
    "textio.parse_matrix",
    "textio.parse_script",
    "textio.matrix_to_text",
    "textio.script_to_text",
    "cli.main",
)


def _per_layer():
    out = []
    for name in spans.SPAN_NAMES:
        out.append((f"{name}.calls", "count"))
        if name not in CLI_ONLY_SPANS:
            out += [(f"{name}.self_s", "s"), (f"{name}.total_s", "s")]
    out += [(key, "bytes" if key.startswith("textio.bytes") else "count") for key in spans.WORK_COUNTS]
    out += [(key, "count") for key in spans.SCALAR_COUNTS]
    out += [("fields.out_max_bits", "bits"), ("cli.import_s", "s")]
    out += [(f"cli.exit_codes.{code}", "count") for code in range(4)]
    out += [("trace.overhead_ratio", "ratio")]
    return tuple(out)


PER_LAYER = _per_layer()


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why} for name, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": "higher" if name == "cli.exit_codes.0" else "lower"}
            for name, unit in PER_LAYER
        ],
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fields_of(w) -> list:
    """The moduli of the workload's fields; None is Q."""
    return [w.p] if isinstance(w, LibWorkload) else sorted({item[1] for item in w.cycle})


class Calibration:
    """Reports times at a fixed reference speed of the machine.

    The speed of the same code on a shared machine drifts by up to 2x within
    seconds. A fixed computation from the benchmark's own code (`exact.rref`
    of a 9x9 rational matrix), which never touches nilwitness, is timed just
    before and just after each measured operation. The operation's time is
    scaled by CAL_NOMINAL_S over the mean of the two. A change to the
    library moves the operation and not the calibration, so it shows in
    full; a change in the machine's speed moves both and cancels out.
    """

    def __init__(self):
        rng = random.Random(0)
        self.rows = [[Fraction(rng.randint(-9, 9)) for _ in range(9)] for _ in range(9)]
        self.factors: list[float] = []

    def _measure(self) -> float:
        """Median of three runs, so that one interruption does not count."""
        times = []
        for _ in range(3):
            start = clock()
            exact.rref(self.rows, None)
            times.append(clock() - start)
        return statistics.median(times)

    def run(self, fn, *args):
        """fn(*args) and the factor that scales its times to the reference speed."""
        before = self._measure()
        result = fn(*args)
        factor = 2 * CAL_NOMINAL_S / (before + self._measure())
        self.factors.append(factor)
        return result, factor


class SetupProbe:
    """Fresh interpreters that import nilwitness.cli and build the workload's fields.

    The first probe only writes the bytecode caches and is not counted. The
    counted probes are spread over the run by `due`, so that their median
    samples the machine's speed at the same times as the workload does.
    """

    def __init__(self, ps, seconds: float, cal: Calibration):
        exprs = ", ".join("Q" if p is None else f"GF({p})" for p in ps)
        self.code = (
            "import time\nstart = time.perf_counter()\nimport nilwitness.cli\n"
            "import_s = time.perf_counter() - start\nfrom nilwitness import GF, Q\n"
            f"fields = [{exprs}]\nprint(import_s)\n"
        )
        self.step = seconds / SETUP_PROBES
        self.cal = cal
        self.samples: list[tuple[float, float]] = []  # (wall, in-process import) per probe
        self._run()

    def _run(self) -> tuple[float, float]:
        start = clock()
        proc = subprocess.run(
            [sys.executable, "-c", self.code],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=COMMAND_TIMEOUT,
            check=True,
        )
        return clock() - start, float(proc.stdout)

    def _probe(self) -> tuple[float, float]:
        (wall, import_s), factor = self.cal.run(self._run)
        return wall * factor, import_s * factor

    def due(self, busy: float):
        """Probe once per `seconds / SETUP_PROBES` of workload busy time."""
        while len(self.samples) < SETUP_PROBES and busy >= len(self.samples) * self.step:
            self.samples.append(self._probe())

    def result(self) -> tuple[float, float]:
        """Median probe wall time and median in-process import time, calibrated."""
        while len(self.samples) < SETUP_PROBES:
            self.samples.append(self._probe())
        walls, imports = zip(*self.samples)
        return statistics.median(walls), statistics.median(imports)


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10)[8]


def bits(value) -> int:
    if isinstance(value, int):
        return value.bit_length()
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def max_bits(claims) -> int:
    mats = [m for c in claims for m in (c.nilpotent, c.rref, c.kernel or [])]
    return max((bits(x) for m in mats for row in m for x in row), default=0)


# ---- library workloads ------------------------------------------------------


def lib_claim(cert, p) -> checks.Claim:
    """The certificate's public fields as plain values, read through str()."""

    def value(s):
        return exact.parse_value(str(s), p)

    def rows(matrix):
        return [[value(e) for e in row] for row in matrix.rows]

    ops = []
    for op in cert.script_m_to_n:
        kind = type(op).__name__.lower()
        if kind == "swap":
            ops.append((kind, op.i, op.j))
        elif kind == "scale":
            ops.append((kind, op.i, value(op.c)))
        else:
            ops.append((kind, op.i, value(op.c), op.j))
    return checks.Claim(
        source=rows(cert.source),
        nilpotent=rows(cert.nilpotent),
        index=cert.index,
        nullity=cert.nullity,
        rref=rows(cert.rref_common),
        ops=ops,
        kernel=[[value(row[0]) for row in v.rows] for v in cert.kernel.vectors],
    )


def certify(nw, matrix):
    """witness(M), then a consumer's standalone verify().

    Returns (t_witness, t_verify, cert); cert is None when a call raised.
    """
    start = clock()
    try:
        cert = nw.witness(matrix)
        mid = clock()
        cert.verify()
    except Exception:  # a failed operation is counted and the run goes on
        traceback.print_exc()
        return clock() - start, 0.0, None
    return mid - start, clock() - mid, cert


def lib_inputs(w, rng):
    """Each call: one nullity cycle of (rows, rank) pairs."""
    return [(exact.exact_rank(rng, w.n, w.n - l, w.p), w.n - l) for l in w.nullities]


class Tally:
    """Operations attempted and failed, and the realised nullities.

    The first few problems go to stderr.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.nullity = Counter()

    def add(self, problems, nullity=None):
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"check failed: {'; '.join(problems)}", file=sys.stderr)
        elif nullity is not None:
            self.nullity[nullity] += 1


def lib_check(tally, cert, rows, rank, p, claims=None):
    if cert is None:
        tally.add(["witness() or verify() raised"])
        return
    claim = lib_claim(cert, p)
    tally.add(checks.certificate_problems(claim, rows, rank, p), claim.nullity)
    if claims is not None:
        claims.append(claim)


def run_lib(w: LibWorkload, seed: int, seconds: float, tally: Tally, probe: SetupProbe):
    import nilwitness as nw

    field = nw.Q if w.p is None else nw.GF(w.p)
    rng = random.Random(f"lib/{seed}")
    warm_rows, warm_rank = lib_inputs(w, rng)[0]
    _, _, cert = certify(nw, nw.Matrix(field, warm_rows))
    lib_check(tally, cert, warm_rows, warm_rank, w.p)
    samples = {"op": [], "witness": [], "verify": []}  # (raw, calibrated) seconds
    busy = 0.0
    while True:
        for rows, rank in lib_inputs(w, rng):
            matrix = nw.Matrix(field, rows)
            (tw, tv, cert), factor = probe.cal.run(certify, nw, matrix)
            if cert is not None:
                for role, t in (("op", tw + tv), ("witness", tw), ("verify", tv)):
                    samples[role].append((t, t * factor))
            lib_check(tally, cert, rows, rank, w.p)
            busy += tw + tv
            probe.due(busy)
        if busy >= MAX_STRETCH * seconds or (busy >= seconds and len(samples["op"]) >= MIN_SAMPLES):
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return samples, peak


def trace_lib(w: LibWorkload, seed: int, tally: Tally, cal: Calibration):
    import nilwitness as nw

    field = nw.Q if w.p is None else nw.GF(w.p)
    rng = random.Random(f"lib/{seed}")
    inputs = [item for _ in range(w.trace_cycles) for item in lib_inputs(w, rng)]
    matrices = [nw.Matrix(field, rows) for rows, _ in inputs]
    tracer, scalar_counts = spans.Tracer(), Counter()

    def one_pass(patches=None):
        busy, certs = 0.0, []
        try:
            for request, matrix in enumerate(matrices):
                tracer.request = request
                (tw, tv, cert), factor = cal.run(certify, nw, matrix)
                busy += (tw + tv) * factor
                certs.append(cert)
        finally:
            if patches is not None:
                patches.undo()
        return busy, certs

    plain_s, plain = one_pass()
    traced_s, traced = one_pass(spans.install_spans(tracer))
    _, counted = one_pass(spans.install_counters(scalar_counts))
    claims = []
    for certs in (plain, traced, counted):
        for cert, (rows, rank) in zip(certs, inputs):
            lib_check(tally, cert, rows, rank, w.p, claims)
    layers = spans.layer_metrics(tracer.spans, tracer.counts + scalar_counts)
    layers["fields.out_max_bits"] = max_bits(claims)
    layers["trace.overhead_ratio"] = traced_s / plain_s
    return layers


# ---- the CLI workload -----------------------------------------------------------


@dataclass
class Command:
    name: str
    wall: float
    code: int | None  # None when the command timed out
    stdout: str
    stderr: str
    factor: float = 1.0  # scales wall to the reference speed (see Calibration)


class CliRunner:
    """Runs commands as child processes; under a trace mode, through launch.py.

    Each command is calibrated; with a set-up probe, the probe runs between
    commands when it is due.
    """

    def __init__(self, work: Path, mode: str | None, cal: Calibration, probe: SetupProbe | None = None):
        self.work, self.mode, self.cal, self.probe = work, mode, cal, probe
        self.busy = 0.0
        self.records: list = []  # (wall, launcher record) per traced command

    def __call__(self, *argv) -> Command:
        trace_file = self.work / "trace.json"
        if self.mode:
            cmd = [sys.executable, str(BENCH / "launch.py"), self.mode, str(trace_file), *argv]
        else:
            cmd = [sys.executable, "-m", "nilwitness.cli", *argv]
        result, result.factor = self.cal.run(self._run, argv[0], cmd)
        self.busy += result.wall
        if self.probe is not None:
            self.probe.due(self.busy)
        if self.mode and trace_file.exists():
            self.records.append((result.wall, json.loads(trace_file.read_text())))
            trace_file.unlink()
        return result

    @staticmethod
    def _run(name, cmd) -> Command:
        start = clock()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=COMMAND_TIMEOUT
            )
            return Command(name, clock() - start, proc.returncode, proc.stdout, proc.stderr)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return Command(name, clock() - start, None, "", "timed out")


def exit_problems(cmd: Command, expected: int) -> list[str]:
    if cmd.code != expected:
        return [f"{cmd.name}: exit {cmd.code}, expected {expected}: {cmd.stderr.strip()[:200]}"]
    if expected == 0 and cmd.stderr:
        return [f"{cmd.name}: unexpected stderr {cmd.stderr.strip()[:200]}"]
    return []


def _parsed(problems, parse):
    """parse() or None, recording a parse failure as a problem."""
    try:
        return parse()
    except (ValueError, OSError) as exc:
        problems.append(f"unreadable output: {exc}")
        return None


def cli_session(p, n, r, rng, run, work):
    """Produce a certificate with `witness`, then check it with the other commands.

    Returns (role, command, problems, claim) per command; role "witness" and
    "verify" (index, apply, certify) feed the class medians.
    """
    m = exact.exact_rank(rng, n, r, p)
    mat, nil, report, ops = (str(work / f) for f in ("M.mat", "N.mat", "report.txt", "ops.txt"))
    Path(mat).write_text(checks.format_matrix(m, p))
    results = []

    cmd = run("witness", mat, "--report", report)
    problems = exit_problems(cmd, 0)
    claim = _parsed(problems, lambda: checks.parse_report(cmd.stdout, p))
    if claim is not None:
        problems += checks.certificate_problems(claim, m, r, p)
        if Path(report).read_text() != cmd.stdout:
            problems.append("witness: --report file differs from stdout")
    results.append(("witness", cmd, problems, claim))
    if claim is None:
        return results  # the rest of the session needs N
    Path(nil).write_text(checks.format_matrix(claim.nilpotent, p))
    own_rref, own_pivots = exact.rref(m, p)

    cmd = run("index", nil)
    problems = exit_problems(cmd, 0)
    if cmd.stdout.strip() != str(claim.index):
        problems.append(f"index: printed {cmd.stdout.strip()!r}, N has index {claim.index}")
    results.append(("verify", cmd, problems, None))

    cmd = run("rref", mat, "--script", ops)
    problems = exit_problems(cmd, 0)
    reduced = _parsed(problems, lambda: checks.parse_matrix(cmd.stdout))
    if reduced is not None and reduced != (p, own_rref):
        problems.append("rref: printed matrix is not the RREF")
    tail = [line for line in cmd.stdout.splitlines() if line.startswith("#")]
    pivots = " ".join(str(c + 1) for c in own_pivots)
    if tail != [f"# rank: {r}", f"# pivot columns: {pivots}"]:
        problems.append(f"rref: rank/pivot lines {tail!r}")
    script = _parsed(problems, lambda: checks.parse_script(Path(ops).read_text(), p))
    if script is not None:
        try:
            if exact.replay(m, script, p) != own_rref:
                problems.append("rref: --script does not reduce the input")
        except ValueError as exc:
            problems.append(f"rref: invalid --script: {exc}")
    results.append(("other", cmd, problems, None))

    cmd = run("apply", mat, ops)
    problems = exit_problems(cmd, 0)
    applied = _parsed(problems, lambda: checks.parse_matrix(cmd.stdout))
    if applied is not None and applied != (p, own_rref):
        problems.append("apply: result is not the RREF")
    results.append(("verify", cmd, problems, None))

    cmd = run("certify", mat, nil)
    problems = exit_problems(cmd, 0)
    if cmd.stdout != "row-equivalent\n":
        problems.append(f"certify: printed {cmd.stdout!r}")
    results.append(("verify", cmd, problems, None))

    cmd = run("kernel", mat)
    problems = exit_problems(cmd, 0)
    vectors = _parsed(problems, lambda: checks.parse_vectors(cmd.stdout, p))
    if vectors is not None:
        problems += checks.kernel_problems(vectors, m, claim.nilpotent, n - r, p)
    results.append(("other", cmd, problems, None))
    return results


def cli_nonsingular(p, n, rng, run, work):
    """`witness` on an invertible input: the documented answer is exit 3."""
    mat = work / "M.mat"
    mat.write_text(checks.format_matrix(exact.full_rank_rows(rng, n, n, p), p))
    cmd = run("witness", str(mat))
    problems = exit_problems(cmd, 3)
    if cmd.stdout or len(cmd.stderr.splitlines()) != 1 or not cmd.stderr.startswith("error:"):
        problems.append(f"witness: expected one error line, got {cmd.stdout!r} / {cmd.stderr!r}")
    return [("other", cmd, problems, None)]


def cli_not_nilpotent(p, n, r, rng, run, work):
    """`index` on a small matrix that is not nilpotent."""
    m = exact.non_nilpotent(rng, n, r, p)
    mat = work / "M.mat"
    mat.write_text(checks.format_matrix(m, p))
    cmd = run("index", str(mat))
    problems = exit_problems(cmd, 0)
    if cmd.stdout != "not nilpotent\n" or exact.nilpotent_index(m, p) is not None:
        problems.append(f"index: printed {cmd.stdout!r} for a matrix that is not nilpotent")
    return [("other", cmd, problems, None)]


CLI_STEPS = {"session": cli_session, "nonsingular": cli_nonsingular, "not-nilpotent": cli_not_nilpotent}


def cli_cycle(w: CliWorkload, rng, run, work):
    results = []
    for kind, *spec in w.cycle:
        results += CLI_STEPS[kind](*spec, rng, run, work)
    return results


def cli_tally(tally, results):
    for _, _, problems, claim in results:
        tally.add(problems, claim.nullity if claim is not None else None)


def run_cli(w: CliWorkload, seed: int, seconds: float, tally: Tally, work: Path, probe: SetupProbe):
    rng = random.Random(f"cli/{seed}")
    run = CliRunner(work, None, probe.cal, probe)
    samples = {"op": [], "witness": [], "verify": []}  # (raw, calibrated) seconds
    while True:
        results = cli_cycle(w, rng, run, work)
        cli_tally(tally, results)
        for role, cmd, _, _ in results:
            for key in {"op", role} & samples.keys():
                samples[key].append((cmd.wall, cmd.wall * cmd.factor))
        enough = len(samples["op"]) >= MIN_SAMPLES and min(
            len(samples["witness"]), len(samples["verify"])
        ) >= MIN_CLASS_SAMPLES
        if run.busy >= MAX_STRETCH * seconds or (run.busy >= seconds and enough):
            break
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return samples, peak


def trace_cli(w: CliWorkload, seed: int, tally: Tally, work: Path, cal: Calibration):
    passes = {}
    for mode in (None, "spans", "counts"):
        rng = random.Random(f"cli/{seed}")
        run = CliRunner(work, mode, cal)
        results = [r for _ in range(w.trace_cycles) for r in cli_cycle(w, rng, run, work)]
        cli_tally(tally, results)
        passes[mode] = (results, run.records)
    plain_s = sum(cmd.wall * cmd.factor for _, cmd, _, _ in passes[None][0])
    span_results, span_records = passes["spans"]
    layers = Counter()
    overhead = 0.0
    exit_codes = Counter()
    for wall, record in span_records:
        metrics = spans.layer_metrics(record["spans"], Counter(record["counts"]))
        layers.update(metrics)
        overhead += wall - metrics["cli.main.total_s"]
        exit_codes[record["exit"]] += 1
    for _, record in passes["counts"][1]:
        layers.update({k: v for k, v in record["counts"].items() if k in spans.SCALAR_COUNTS})
    layers = dict(layers)
    claims = [claim for _, _, _, claim in span_results if claim is not None]
    layers["fields.out_max_bits"] = max_bits(claims)
    layers["cli.process_overhead_s"] = overhead
    for code in range(4):
        layers[f"cli.exit_codes.{code}"] = exit_codes[code]
    layers["trace.overhead_ratio"] = sum(cmd.wall * cmd.factor for _, cmd, _, _ in span_results) / plain_s
    return layers


# ---- entry point -------------------------------------------------------------


def print_result(tally: Tally, metrics: dict) -> None:
    """Readable lines, then the JSON result as the last line of stdout."""
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>14.6g} {unit}")
    print(f"{'fail_ratio':40s} {tally.failed / max(tally.attempted, 1):>14.6g} "
          f"({tally.failed} of {tally.attempted} operations failed a check)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def end_to_end(samples, peak, setup_s, factors) -> dict:
    """The END_TO_END metrics from (raw, calibrated) samples; readable lines on the way."""
    cal = {role: [c for _, c in pairs] for role, pairs in samples.items()}
    for role, pairs in samples.items():
        line = f"# {role}: {len(pairs)} samples"
        for label, values in (("calibrated", cal[role]), ("raw", [r for r, _ in pairs])):
            line += f"; {label} p50 {statistics.median(values) * 1e3:.3f} ms"
            above = sum(1 for x in values if x > p90(values))
            if above >= 10:  # a percentile is reported only with ten samples beyond it
                line += f", p90 {p90(values) * 1e3:.3f} ms ({above} above p90)"
        print(line)
    print(f"# calibration factor: median {statistics.median(factors):.4f}, "
          f"range {min(factors):.4f}-{max(factors):.4f} over {len(factors)} timed calls")
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(cal["op"]) / sum(cal["op"]),
        "op_p50_ms": statistics.median(cal["op"]) * 1e3,
        "op_p90_ms": p90(cal["op"]) * 1e3,
        "witness_p50_ms": statistics.median(cal["witness"]) * 1e3,
        "verify_p50_ms": statistics.median(cal["verify"]) * 1e3,
        "peak_rss_mb": peak,
    }
    return {name: (values[name], unit) for name, unit, _, _ in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "nilwitness" / "__init__.py").is_file():
        print(f"error: no nilwitness sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    allowed = os.sched_getaffinity(0)
    # Commands and set-up probes inherit this, so they run on the CPU that
    # the calibration measures.
    os.sched_setaffinity(0, {min(allowed)})
    print(f"# workload {args.workload}: {w.why}")
    print(f"# seed {args.seed}, nproc {len(allowed)}, pinned to cpu {min(allowed)}, "
          f"python {sys.version.split()[0]}, trace {args.trace}, seconds {args.seconds:g}")
    probe = SetupProbe(fields_of(w), args.seconds, Calibration())
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        work = Path(tmp)
        if args.trace:
            if isinstance(w, LibWorkload):
                layers = trace_lib(w, args.seed, tally, probe.cal)
            else:
                layers = trace_cli(w, args.seed, tally, work, probe.cal)
            layers["cli.import_s"] = probe.result()[1]
            metrics = {name: (layers.get(name, 0), unit) for name, unit in PER_LAYER}
            for name in sorted(layers.keys() - metrics.keys()):
                print(f"# {name:38s} {layers[name]:>14.6g} s")
        else:
            if isinstance(w, LibWorkload):
                samples, peak = run_lib(w, args.seed, args.seconds, tally, probe)
            else:
                samples, peak = run_cli(w, args.seed, args.seconds, tally, work, probe)
            setup_s = probe.result()[0]
            metrics = end_to_end(samples, peak, setup_s, probe.cal.factors)
    print(f"# realised nullity histogram: {dict(sorted(tally.nullity.items()))}")
    print_result(tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
