"""Byte-identity gate: `kserver verify` reports, campaign CSVs, and what
`kserver run --trace-out` prints and writes must equal the committed goldens
in ``tests/golden/`` byte for byte.

The verify and campaign goldens were written by the code as it stood
before fixed-point compression of anchors, the trace goldens by the code
as it stood before the online decisions and the offline backtrack were
moved onto the shared transition tables; both changes must not change a
single output byte.  Do not rewrite them to make a change pass; a change that
alters an output on purpose says so and why.

    PYTHONPATH=src python3 tests/test_golden.py DIR   # write every golden to DIR
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from kserver import generate_instance, instance_to_json, report_to_csv, run_campaign
from kserver.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (n, k, |rho|, seed, request model, weight range, q)
VERIFY_CASES = {
    # the verify-mid benchmark instance and a (16, 6, 4) verify-wide one
    "n12-k4-r50-s114": (12, 4, 50, 114, "uniform", (1, 9), 3),
    "n16-k6-r4-s2": (16, 6, 4, 2, "uniform", (1, 9), 3),
}
for _model, _n, _k, _rho, _seed in (
    ("uniform", 6, 3, 8, 1),
    ("uniform", 7, 2, 10, 2),
    ("roundrobin_k_plus_1", 6, 3, 9, 3),
    ("roundrobin_k_plus_1", 5, 2, 8, 4),
    ("greedy_adversary", 6, 3, 8, 5),
    ("greedy_adversary", 7, 3, 10, 6),
):
    for _q in (1, 2, 3):
        VERIFY_CASES[f"{_model}-n{_n}-k{_k}-r{_rho}-s{_seed}-w1000-q{_q}"] = (
            _n, _k, _rho, _seed, _model, (1, 1000), _q,
        )

# name -> (n, k, |rho|, seed, request model, weight range); each is run
# with both algorithms
TRACE_CASES = {
    "n12-k4-r50-s114": (12, 4, 50, 114, "uniform", (1, 9)),
    "greedy_adversary-n8-k3-r40-s7-w1000": (8, 3, 40, 7, "greedy_adversary", (1, 1000)),
    "uniform-n6-k3-r0-s1": (6, 3, 0, 1, "uniform", (1, 9)),
}
TRACE_ALGOS = ("wfa", "opt")


def instance_file(case, workdir: Path) -> Path:
    n, k, rho_len, seed, model, weights = case
    inst = generate_instance(n, k, rho_len, seed, request_model=model, weight_range=weights)
    path = workdir / "instance.json"
    path.write_text(instance_to_json(inst))
    return path


def verify_report_bytes(case, workdir: Path) -> bytes:
    """What `kserver verify INSTANCE --q Q --report-out OUT` writes to OUT."""
    path = instance_file(case[:-1], workdir)
    out = workdir / "report.json"
    main(["verify", str(path), "--q", str(case[-1]), "--report-out", str(out)])
    return out.read_bytes()


def run_trace_bytes(case, algo: str, workdir: Path) -> tuple[bytes, bytes]:
    """What `kserver run INSTANCE --algo ALGO --trace-out OUT` prints, and
    what it writes to OUT."""
    path = instance_file(case, workdir)
    out = workdir / "trace.json"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        main(["run", str(path), "--algo", algo, "--trace-out", str(out)])
    return printed.getvalue().encode("utf-8"), out.read_bytes()


def campaign_csv_bytes(config) -> bytes:
    """What `kserver campaign CONFIG --out OUT` writes to OUT."""
    return report_to_csv(run_campaign(config)).encode("utf-8")


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_report_matches_golden(name, tmp_path, capsys):
    got = verify_report_bytes(VERIFY_CASES[name], tmp_path)
    capsys.readouterr()
    assert got == (GOLDEN / "verify" / f"{name}.json").read_bytes()


@pytest.mark.parametrize("algo", TRACE_ALGOS)
@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_run_trace_matches_golden(name, algo, tmp_path):
    printed, trace = run_trace_bytes(TRACE_CASES[name], algo, tmp_path)
    assert printed == (GOLDEN / "trace" / f"{name}-{algo}.stdout").read_bytes()
    assert trace == (GOLDEN / "trace" / f"{name}-{algo}.json").read_bytes()


def write_goldens(directory: Path) -> None:
    import tempfile

    from test_acceptance import CAMPAIGNS

    (directory / "verify").mkdir(parents=True, exist_ok=True)
    (directory / "campaign").mkdir(parents=True, exist_ok=True)
    (directory / "trace").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, case in VERIFY_CASES.items():
            report = verify_report_bytes(case, Path(work))
            (directory / "verify" / f"{name}.json").write_bytes(report)
        for name, case in TRACE_CASES.items():
            for algo in TRACE_ALGOS:
                printed, trace = run_trace_bytes(case, algo, Path(work))
                (directory / "trace" / f"{name}-{algo}.stdout").write_bytes(printed)
                (directory / "trace" / f"{name}-{algo}.json").write_bytes(trace)
    for model, config in CAMPAIGNS.items():
        (directory / "campaign" / f"{model}.csv").write_bytes(campaign_csv_bytes(config))


if __name__ == "__main__":
    write_goldens(Path(sys.argv[1]))
