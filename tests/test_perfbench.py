"""The benchmark's seed-0 runs check every op's output against
perfbench/reference.json; one cycle of each workload keeps them in the suite,
and short traced verdicts, rational and certify-chains runs keep the
per-layer wrapping there too."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["certify-chains", "verdicts", "lines", "rational"])
def test_benchmark_seed0_matches_reference(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", "0"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0


def test_traced_verdicts_run_counts_the_pieces():
    # the traced run wraps SpanningCertifier.piece, keeps each piece it
    # returns in a WeakSet and adds up their column counts.  It also counts
    # the kernels the witness scan takes, one per deficient contraction: of
    # each cycle's five ops, the four placed witnesses take one each and
    # hidden-n3 none, so however the scan screens its points it reads 0.8
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "verdicts", "--seed", "0", "--seconds", "1",
         "--trace", "1"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["nondeg.piece.calls"]["value"] > 0
    assert metrics["nondeg.piece.cols"]["value"] > 0
    assert metrics["nondeg.scan.points"]["value"] == pytest.approx(0.8)


def test_traced_rational_run_counts_the_eliminations():
    # per op over the cycle's seven certificates over Q: 36/7 calls of
    # Mat.rref over Q, and 34/7 exact products, for the displays, the witness
    # scan and the pieces.  classify reads the rank off the flattening's RREF,
    # one call per op, which the display and the (1,1) piece read again from
    # the kept result.  Each kernel basis over Q is read off its RREF and
    # reduced once more; the witness partner's canonical kernel then reads
    # that reduced basis's kept RREF, a call with no elimination.  The six
    # modular ops check and rank their S^2 complex on int64
    # residues, with no product or elimination over Q
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "rational", "--seed", "0", "--seconds", "1",
         "--trace", "1"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["linalg.rref.calls.generic"]["value"] == pytest.approx(36 / 7)
    assert metrics["linalg.matmul.calls"]["value"] == pytest.approx(34 / 7)


def test_traced_certify_run_gathers_no_alpha():
    # a certificate reads rank alpha(d) off the inverse systems of its
    # certificate pieces, so no op of the main user path gathers alpha
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "certify-chains", "--seed", "0", "--seconds",
         "1", "--trace", "1"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["monads.alpha.self_s"]["value"] == 0
