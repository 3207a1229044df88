"""Self-tests of the benchmark: exact layer counts, the output checks, the
CLI session checks and the manifest.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import checks
import exact
import run
import spans

sys.path.insert(0, str(run.SRC))

import nilwitness as nw  # noqa: E402

README_TEXT = "Q\n3 3\n1 0 2\n0 1 3\n0 0 0\n"
README_ROWS = [[1, 0, 2], [0, 1, 3], [0, 0, 0]]


def count_keys(layers):
    return {k: v for k, v in layers.items() if not k.endswith(("_s", "_ratio"))}


def traced_witness():
    tracer, scalar_counts = spans.Tracer(), Counter()
    patches = spans.install_spans(tracer)
    try:
        nw.witness(nw.Matrix(nw.Q, README_ROWS))
    finally:
        patches.undo()
    patches = spans.install_counters(scalar_counts)
    try:
        nw.witness(nw.Matrix(nw.Q, README_ROWS))
    finally:
        patches.undo()
    return spans.layer_metrics(tracer.spans, tracer.counts + scalar_counts)


def traced_cli_witness(tmp_path):
    matrix = tmp_path / "m.mat"
    matrix.write_text(README_TEXT)
    out = tmp_path / "spans.json"
    layers = Counter()
    for mode in ("spans", "counts"):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "launch.py"), mode, str(out), "witness", str(matrix)],
            env=run.child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(out.read_text())
        layers.update(spans.layer_metrics(record["spans"], Counter(record["counts"])))
    return dict(layers)


def test_witness_alone_runs_seven_rrefs():
    layers = traced_witness()
    assert layers["matrix.rref.calls"] == 7
    assert layers["witness.witness.calls"] == 1
    assert layers["witness.verify.calls"] == 1
    assert layers["fields.scalar_mul.calls"] > 0


def test_cli_witness_runs_nine_rrefs(tmp_path):
    # the command verifies the certificate again after witness() did
    layers = traced_cli_witness(tmp_path)
    assert layers["matrix.rref.calls"] == 9
    assert layers["witness.verify.calls"] == 2
    assert layers["cli.main.calls"] == 1
    assert layers["textio.parse_matrix.calls"] == 1
    assert layers["textio.bytes_in"] == len(README_TEXT)


def test_counts_repeat_exactly(tmp_path):
    assert count_keys(traced_witness()) == count_keys(traced_witness())
    assert count_keys(traced_cli_witness(tmp_path)) == count_keys(traced_cli_witness(tmp_path))
    small = run.LibWorkload("", p=5, n=6, nullities=(1, 3), trace_cycles=1)
    first, second = (run.trace_lib(small, 7, run.Tally(), run.Calibration()) for _ in range(2))
    assert count_keys(first) == count_keys(second)


def test_spans_are_removed_after_undo():
    plain = nw.Matrix.rref
    patches = spans.install_spans(spans.Tracer())
    assert nw.Matrix.rref is not plain
    patches.undo()
    assert nw.Matrix.rref is plain


@pytest.fixture
def claim_and_input():
    rng = random.Random(3)
    rows = exact.exact_rank(rng, 6, 4, None)
    cert = nw.witness(nw.Matrix(nw.Q, rows))
    return run.lib_claim(cert, None), rows


def test_checker_accepts_a_genuine_certificate(claim_and_input):
    claim, rows = claim_and_input
    assert checks.certificate_problems(claim, rows, 4, None) == []


@pytest.mark.parametrize(
    "tamper",
    [
        lambda c: setattr(c, "index", c.index + 1),
        lambda c: setattr(c, "nullity", c.nullity + 1),
        lambda c: c.nilpotent[0].__setitem__(0, c.nilpotent[0][0] + 1),
        lambda c: c.rref[0].__setitem__(5, c.rref[0][5] + 1),
        lambda c: c.ops.pop(),
        lambda c: c.kernel.pop(),
        lambda c: c.kernel.append(list(c.kernel[0])),
        lambda c: c.kernel.__setitem__(0, [0] * 6),
        lambda c: c.source[1].__setitem__(1, c.source[1][1] + 1),
    ],
)
def test_checker_rejects_a_tampered_certificate(claim_and_input, tamper):
    claim, rows = claim_and_input
    tamper(claim)
    assert checks.certificate_problems(claim, rows, 4, None)


def test_cli_steps_pass_their_checks(tmp_path):
    rng = random.Random(4)
    runner = run.CliRunner(tmp_path, None, run.Calibration())
    results = run.cli_session(2, 10, 3, rng, runner, tmp_path)
    results += run.cli_session(3, 8, 2, rng, runner, tmp_path)
    results += run.cli_nonsingular(2, 8, rng, runner, tmp_path)
    results += run.cli_not_nilpotent(3, 6, 3, rng, runner, tmp_path)
    assert [cmd.name for _, cmd, _, _ in results[:6]] == [
        "witness", "index", "rref", "apply", "certify", "kernel"
    ]
    assert [problems for _, _, problems, _ in results] == [[]] * 14
    assert results[-2][1].code == 3


def test_report_parser_rejects_a_wrong_index():
    cert = nw.witness(nw.Matrix(nw.Q, README_ROWS))
    claim = checks.parse_report(cert.to_report().replace("[index]\n3", "[index]\n2"), None)
    assert checks.certificate_problems(claim, README_ROWS, 2, None)


def test_exact_rank_and_non_nilpotent_inputs():
    rng = random.Random(5)
    for p in (None, 2, 3, 1000003):
        assert exact.rank(exact.exact_rank(rng, 9, 4, p), p or exact.RANK_PRIME) == 4
        assert exact.nilpotent_index(exact.non_nilpotent(rng, 5, 2, p), p) is None


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lib-q", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_manifest_matches_benchmark_json():
    assert json.loads((run.ROOT / "BENCHMARK.json").read_text()) == run.manifest()
