import json

import pytest

from kserver import (
    final_work_vector,
    generate_instance,
    instance_to_json,
    opt_cost,
    opt_trace,
    run_wfa,
)
from kserver.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_IO_ERROR,
    EXIT_OK,
    build_parser,
    main,
)
from kserver.harness import CHECK_IDS, CheckResult, PropertyReport


@pytest.fixture
def m3_file(tmp_path, m3_instance):
    path = tmp_path / "m3.json"
    path.write_text(instance_to_json(m3_instance))
    return str(path)


class TestGen:
    def test_writes_valid_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        code = main(["gen", "--n", "8", "--k", "3", "--rho-len", "12",
                     "--seed", "42", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["n"] == 8 and doc["k"] == 3 and len(doc["requests"]) == 12

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--n", "6", "--k", "2", "--rho-len", "5", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_k_exceeds_n(self, tmp_path, capsys):
        code = main(["gen", "--n", "8", "--k", "9", "--rho-len", "1",
                     "--seed", "1", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT_ERROR
        assert "k exceeds n" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits(self, tmp_path, capsys, seed):
        # SplitMix64 keeps 64 bits, so these would write the files of
        # seeds 2^64 - 1 and 0
        out = tmp_path / "x.json"
        code = main(["gen", "--n", "6", "--k", "2", "--rho-len", "5",
                     "--seed", seed, "--out", str(out)])
        assert code == EXIT_INPUT_ERROR
        assert f"got {seed}" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_wfa_cost(self, m3_file, capsys):
        assert main(["run", m3_file, "--algo", "wfa"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "2"

    def test_opt_cost(self, m3_file, capsys):
        assert main(["run", m3_file, "--algo", "opt"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "2"

    def test_trace_out(self, m3_file, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert main(["run", m3_file, "--trace-out", str(trace_path)]) == EXIT_OK
        doc = json.loads(trace_path.read_text())
        assert doc["total_cost"] == 2
        assert doc["rounds"][0]["request"] == 2

    def test_opt_trace_out(self, tmp_path, capsys):
        # the optimum is printed from the extracted trace; it must be the
        # optimum even where the online cost differs (19 against 11 here)
        inst = generate_instance(7, 3, 4, seed=1, request_model="greedy_adversary")
        path, trace_path = tmp_path / "inst.json", tmp_path / "trace.json"
        path.write_text(instance_to_json(inst))
        assert main(["run", str(path), "--algo", "opt", "--trace-out", str(trace_path)]) == EXIT_OK
        opt = opt_cost(final_work_vector(inst))
        assert capsys.readouterr().out == f"{opt}\n"
        assert opt == 11 and run_wfa(inst).total_cost == 19
        assert json.loads(trace_path.read_text()) == opt_trace(inst).to_json()

    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == EXIT_IO_ERROR

    @pytest.mark.parametrize("command", ["run", "verify", "campaign"])
    @pytest.mark.parametrize("content, named", [
        (b"\xff\xfe{}", "is not UTF-8 text"),
        (b"[" * 100_000, "does not parse as JSON"),
        (b'{"k": 2, "k": 2}', "has duplicate key 'k'"),
    ], ids=["utf16-bom", "deep-nesting", "duplicate-key"])
    def test_unreadable_file(self, tmp_path, capsys, command, content, named):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        extra = ["--out", str(tmp_path / "out.csv")] if command == "campaign" else []
        assert main([command, str(bad), *extra]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} {named}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("changes, named", [
        ({"initial": [0, 0]}, "repeated"),
        ({"dist": 5}, "distance matrix"),
        ({"dist": [0, 1]}, "row 0 of the distance matrix"),
        ({"initial": 5}, "'initial'"),
        ({"requests": 5}, "'requests'"),
        ({"labels": 5}, "labels"),
        ({"labels": [["a"], ["b"]]}, "labels must be strings"),
        ({"labels": ["a", "a"]}, "duplicate label 'a'"),
    ], ids=["repeated-start", "dist-scalar", "dist-flat", "initial-scalar", "requests-scalar",
            "labels-scalar", "labels-unhashable", "labels-repeated"])
    def test_invalid_instance(self, tmp_path, capsys, changes, named):
        doc = {"n": 2, "k": 2, "dist": [[0, 1], [1, 0]], "initial": [0, 1], "requests": []}
        doc.update(changes)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for command in ("run", "verify"):
            assert main([command, str(bad)]) == EXIT_INPUT_ERROR
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err
            assert "Traceback" not in err


class TestVerify:
    def test_m3_passes(self, m3_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["verify", m3_file, "--alpha", "3", "--report-out", str(report_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for check_id in CHECK_IDS:
            assert f"{check_id}: pass" in out
        doc = json.loads(report_path.read_text())
        assert doc["status"] == "pass"
        assert len(doc["checks"]) == 9

    def test_alpha_token_default(self, m3_file):
        assert main(["verify", m3_file]) == EXIT_OK

    def test_corrupted_json(self, tmp_path):
        bad = tmp_path / "corrupt.json"
        bad.write_text("{this is not json")
        assert main(["verify", str(bad)]) == EXIT_INPUT_ERROR

    def test_oversized_anchor_is_an_input_error(self, tmp_path, capsys):
        # the anchor this instance needs would pass int64; it is refused
        # before its requests are built, not with a MemoryError
        far = 10**12
        doc = {"n": 3, "k": 2, "dist": [[0, 1, far], [1, 0, far], [far, far, 0]],
               "initial": [0, 1], "requests": [2]}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "int64 bound" in err
        assert "Traceback" not in err

    def test_inconclusive_exit_code(self, m3_file, monkeypatch):
        import kserver.cli as cli

        checks = tuple(
            CheckResult(cid, "inconclusive" if cid == "R1" else "pass", 0, 0)
            for cid in CHECK_IDS
        )
        forged = PropertyReport(
            fingerprint="0" * 64, alpha=3, beta_initial=0, beta_used=8, q=3,
            cycles=5, min_gap=1, checks=checks,
            values={k: 0 for k in ("opt", "alg", "opt_rho_sigma", "alg_rho_sigma", "opt_chi", "alg_chi")},
        )
        monkeypatch.setattr(cli, "verify_anchored_properties", lambda *a, **kw: forged)
        assert main(["verify", m3_file]) == EXIT_INCONCLUSIVE


class TestCampaign:
    def _config(self, tmp_path, **overrides):
        config = {
            "seeds": [1, 3], "n": [3, 5], "k": [2, 2], "rho_len": [0, 6],
            "request_model": "uniform", "alpha": "2k-1", "beta": 0, "q": 3,
        }
        config.update(overrides)
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_small_campaign(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["campaign", self._config(tmp_path), "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("instance_id,seed,")
        assert len(lines) == 4
        assert "3 instances, status pass" in capsys.readouterr().out

    def test_empty_campaign(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = main(["campaign", self._config(tmp_path, seeds=[1, 0]), "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().count("\n") == 1  # header only

    def test_unknown_model(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["campaign", self._config(tmp_path, request_model="zipf"), "--out", str(out)])
        assert code == EXIT_INPUT_ERROR


def test_help_lists_checks():
    text = build_parser().format_help()
    for check_id in CHECK_IDS:
        assert check_id in text


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "kserver", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "campaign" in proc.stdout
